// Command perfbench is the repository's end-to-end benchmark. It drives
// the public broker API — Publish then EndStep, closed-loop from one
// publisher — over one of three workloads, checks every view against an
// independent from-scratch recompute, and prints the end-to-end metrics
// (or, with -trace 1, the per-layer split) as one JSON object on the
// last line of standard output. README.md in this directory documents
// the workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"abivm/internal/ivm"
	"abivm/internal/pubsub"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
}

// maxDrift bounds how far the per-step work in the second half of the
// timed window may drift from the first half before the run fails: a
// workload whose per-step cost depends on run length measures nothing
// stable. Work is counted as bytes allocated per modification; the
// wall-clock ratio is reported too, but on a shared host it swings by
// tens of percent from outside interference alone.
const maxDrift = 0.15

// setups is how many times a run sets the workload up; setup_s is the
// median.
const setups = 7

// warmup is how long a run steps before its timed window, so lazy
// set-up, policy estimators and checkpoint chains reach their steady
// state first; it spans several checkpoint and notification cycles of
// every workload.
const warmup = time.Second

// recoveries is how many times the durable workload recovers every view
// from disk; recovery_s is their median.
const recoveries = 5

func main() {
	var names []string
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(names, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed of the modification stream")
	flag.Float64Var(&o.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 attaches observability and reports the per-layer split")
	flag.StringVar(&o.root, "root", ".", "repository root: holds examples/views.sql, and .bench_build/ for data")
	flag.Parse()
	w, ok := workloads[o.workload]
	if !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload {%s} [-seed n] [-seconds s] [-trace 0|1]\n", strings.Join(names, "|"))
		os.Exit(2)
	}
	o.trace = trace == 1
	r, err := run(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if err := r.print(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// driver runs steps against one set-up instance and tallies what the
// end-to-end metrics count: calls attempted and failed, notifications,
// degraded notifications, and the worst refresh cost relative to C.
type driver struct {
	inst  *instance
	gen   generator
	force *atomic.Int64
	qos   map[string]float64
	// step is the index the next EndStep evaluates conditions at.
	step int

	attempted, failed int
	notes, degraded   int
	maxRefresh        float64
	errs              []string

	layers *layers
}

// window is one timed stretch of steps.
type window struct {
	lat     []time.Duration
	ends    []time.Duration // step end, relative to the window start
	mods    []int
	elapsed time.Duration
	// alloc holds the bytes allocated so far at the window's start, at
	// the first step end past its middle, and at its end; mid indexes
	// that step.
	alloc [3]uint64
	mid   int
}

func (w *window) totalMods() int {
	n := 0
	for _, m := range w.mods {
		n += m
	}
	return n
}

// segments is how many equal-time slices the timed window is cut into
// for throughput_mods_per_s.
const segments = 20

// throughput is the median over equal-time slices of the window of mods
// completed per second, so a burst of interference from outside the
// process moves one slice, not the metric.
func (w *window) throughput() float64 {
	rates := make([]float64, 0, segments)
	slice := w.elapsed / segments
	from, mods := time.Duration(0), 0
	for i, e := range w.ends {
		mods += w.mods[i]
		if e-from >= slice || i == len(w.ends)-1 {
			rates = append(rates, float64(mods)/(e-from).Seconds())
			from, mods = e, 0
		}
	}
	return median(rates)
}

// minP99Steps is the fewest steps a p99 is taken over: ten samples
// beyond it.
const minP99Steps = 1000

// latency returns the step latency p50 and p99 in ms. The window's
// steps are cut into consecutive runs of at least minP99Steps steps,
// each run's nearest-rank quantiles are taken, and the median over runs
// is reported — so a burst of interference from outside the process
// moves one run's tail, not the metric. A window shorter than
// minP99Steps steps is one run.
func (w *window) latency() (p50, p99 float64) {
	runs := max(len(w.lat)/minP99Steps, 1)
	var p50s, p99s []float64
	for i := 0; i < runs; i++ {
		part := w.lat[i*len(w.lat)/runs : (i+1)*len(w.lat)/runs]
		ms := make([]float64, len(part))
		for j, l := range part {
			ms[j] = float64(l) / float64(time.Millisecond)
		}
		sort.Float64s(ms)
		p50s = append(p50s, quantile(ms, 0.50))
		p99s = append(p99s, quantile(ms, 0.99))
	}
	return median(p50s), median(p99s)
}

// halfRatios compares the second half of the window with the first:
// wall-clock throughput, and bytes allocated per modification — the
// same per-step work, counted by the Go runtime instead of timed, so
// interference from outside the process does not move it.
func (w *window) halfRatios() (thr, alloc float64) {
	if w.mid == 0 || w.mid == len(w.mods) {
		return 0, 0
	}
	first, second := 0, 0
	for i, m := range w.mods {
		if i < w.mid {
			first += m
		} else {
			second += m
		}
	}
	midEnd := w.ends[w.mid-1]
	thr = (float64(second) / (w.elapsed - midEnd).Seconds()) / (float64(first) / midEnd.Seconds())
	alloc = (float64(w.alloc[2]-w.alloc[1]) / float64(second)) / (float64(w.alloc[1]-w.alloc[0]) / float64(first))
	return thr, alloc
}

func (d *driver) fail(format string, args ...any) {
	d.failed++
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

// oneStep publishes one generated step and closes it. It returns the
// step's notifications, its latency (first Publish to EndStep return)
// and its modification count, or false when a call failed.
func (d *driver) oneStep() ([]pubsub.Notification, time.Duration, int, bool) {
	evs := d.gen.step()
	var st stepTrace
	if d.layers != nil {
		st = d.layers.beginPublish()
	}
	start := time.Now()
	for _, ev := range evs {
		d.attempted++
		if err := d.inst.b.Publish(ev.table, ev.mod); err != nil {
			d.fail("step %d: publish on %s: %v", d.step, ev.table, err)
			return nil, 0, 0, false
		}
	}
	if d.layers != nil {
		st.endPublish()
	}
	d.attempted++
	notes, err := d.inst.b.EndStep()
	lat := time.Since(start)
	if err != nil {
		d.fail("step %d: end step: %v", d.step, err)
		return nil, 0, 0, false
	}
	if d.layers != nil {
		st.endStep(len(evs))
	}
	d.step++
	for _, n := range notes {
		d.notes++
		if n.Degraded {
			d.degraded++
		}
		if r := n.RefreshCost / d.qos[n.Subscription]; r > d.maxRefresh {
			d.maxRefresh = r
		}
	}
	return notes, lat, len(evs), true
}

// runFor steps until dur has elapsed (at least one step).
func (d *driver) runFor(dur time.Duration) (*window, bool) {
	w := &window{}
	buf := make([]metrics.Sample, 1)
	w.alloc[0] = allocBytes(buf)
	start := time.Now()
	for {
		_, lat, mods, ok := d.oneStep()
		if !ok {
			return w, false
		}
		w.elapsed = time.Since(start)
		w.lat = append(w.lat, lat)
		w.ends = append(w.ends, w.elapsed)
		w.mods = append(w.mods, mods)
		if w.mid == 0 && w.elapsed >= dur/2 {
			w.alloc[1], w.mid = allocBytes(buf), len(w.mods)
		}
		if w.elapsed >= dur {
			w.alloc[2] = allocBytes(buf)
			return w, true
		}
	}
}

// heapSamples is how many live-heap samples liveHeap averages.
const heapSamples = 32

// liveHeap steps through one workload cycle, untimed, and returns the
// mean live heap in MB over heapSamples forced GCs spread evenly across
// it. Retained deltas and pending queues swell and shrink with the
// checkpoint, notification and flip cycles, so one sample would depend
// on where in the cycle the window ended.
func (d *driver) liveHeap(cycle int) (float64, bool) {
	var ms runtime.MemStats
	total := 0.0
	every := max(cycle/heapSamples, 1)
	for i := 1; i <= every*heapSamples; i++ {
		if _, _, _, ok := d.oneStep(); !ok {
			return 0, false
		}
		if i%every == 0 {
			runtime.GC()
			runtime.ReadMemStats(&ms)
			total += float64(ms.HeapAlloc) / 1e6
		}
	}
	return total / heapSamples, true
}

// planCost is Σ over subscriptions of the accumulated model cost.
func (d *driver) planCost() (float64, error) {
	total := 0.0
	for _, v := range d.inst.views {
		c, err := d.inst.b.TotalCost(v.name)
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// finalCheck forces every view to fire on one more generated step and
// compares each notification with a from-scratch recompute over the
// live tables.
func (d *driver) finalCheck() (*oracle, bool) {
	d.force.Store(int64(d.step))
	notes, _, _, ok := d.oneStep()
	if !ok {
		return nil, false
	}
	orc, err := newOracle(d.inst.db, d.inst.views, 3)
	if err != nil {
		d.fail("%v", err)
		return nil, false
	}
	got := map[string]int{}
	for _, n := range notes {
		got[n.Subscription]++
		d.attempted++
		if err := sameRows(n.Rows, orc.want[n.Subscription]); err != nil {
			d.fail("view %s differs from recompute: %v", n.Subscription, err)
		}
	}
	for _, v := range d.inst.views {
		if got[v.name] != 1 {
			d.attempted++
			d.fail("view %s: %d notifications on the final step, want 1", v.name, got[v.name])
		}
	}
	return orc, true
}

// recoverAll reopens every view's store, as after a crash, and recovers
// it through the store opener and Store.Recover. One more empty step
// first makes the broker sync the final step's log records. It returns
// the median wall-clock time of recovering all views.
func (d *driver) recoverAll(orc *oracle) float64 {
	d.attempted++
	if _, err := d.inst.b.EndStep(); err != nil {
		d.fail("sync step: %v", err)
		return 0
	}
	times := make([]float64, recoveries)
	for i := range times {
		start := time.Now()
		for _, v := range d.inst.views {
			d.attempted++
			st, err := d.inst.disk.open(v.name)
			if err != nil {
				d.fail("opening store %s: %v", v.name, err)
				return 0
			}
			rec, err := st.Recover(d.inst.db, v.query, ivm.DefaultChainDepth, nil)
			if err != nil {
				d.fail("recovering %s: %v", v.name, err)
				return 0
			}
			if rec.Fallback {
				d.fail("recovering %s fell back to a full refresh", v.name)
			}
			if i == 0 {
				if err := sameRows(rec.M.Result(), orc.want[v.name]); err != nil {
					d.fail("recovered %s differs from recompute: %v", v.name, err)
				}
			}
		}
		times[i] = time.Since(start).Seconds()
	}
	return median(times)
}

// result is everything one run prints.
type result struct {
	o      options
	meta   []string
	e2e    []metric
	layer  []metric
	report []metric
	d      *driver
	ok     bool
}

// metric is one named value with its unit.
type metric struct {
	name  string
	unit  string
	value float64
}

func run(w *workload, o options) (*result, error) {
	root, err := filepath.Abs(o.root)
	if err != nil {
		return nil, err
	}
	force := new(atomic.Int64)
	force.Store(-1)
	pol := &policyStats{}
	var wrap func(*pubsub.Subscription)
	if o.trace {
		wrap = pol.wrap
	}

	// Set up several times and keep the last instance; setup_s is the
	// median, so one slow set-up does not move it.
	var inst *instance
	var setupTimes, loads, compiles, subscribes []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start := time.Now()
		inst, err = w.setup(root, force, wrap)
		if err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		loads = append(loads, inst.load.Seconds())
		compiles = append(compiles, inst.compile.Seconds())
		subscribes = append(subscribes, inst.subscribe.Seconds())
	}
	defer inst.close()

	d := &driver{inst: inst, gen: w.gen(o.seed, inst.db), force: force, qos: map[string]float64{}}
	for _, v := range inst.views {
		d.qos[v.name] = v.qos
	}
	r := &result{o: o, d: d}
	r.meta = runMeta(o, w)

	if _, ok := d.runFor(warmup); !ok {
		return r, nil
	}

	// The timed window. A traced run spends its first half untraced, as
	// the baseline for obs.overhead_frac, and traces the second.
	timed := time.Duration(o.seconds * float64(time.Second))
	var base *window
	if o.trace {
		timed /= 2
		var ok bool
		if base, ok = d.runFor(timed); !ok {
			return r, nil
		}
		d.layers = newLayers(inst.b, pol)
	}
	cost0, err := d.planCost()
	if err != nil {
		return nil, err
	}
	dur0 := inst.b.DurabilityStats()
	written0 := inst.written()
	steal0, ticks0 := cpuTicks()
	win, ok := d.runFor(timed)
	if !ok {
		return r, nil
	}
	written1 := inst.written()
	steal1, ticks1 := cpuTicks()
	dur1 := inst.b.DurabilityStats()
	cost1, err := d.planCost()
	if err != nil {
		return nil, err
	}
	lay := d.layers
	if lay != nil {
		lay.finish()
		d.layers = nil
	}
	// Reduce the window to its figures and drop it before the heap is
	// measured, so the benchmark's own per-step records are not counted.
	mods := float64(win.totalMods())
	p50, p99 := win.latency()
	thr := win.throughput()
	thrDrift, allocDrift := win.halfRatios()
	overhead := 0.0
	if base != nil {
		overhead = 1 - thr/base.throughput()
	}
	// CPU time the hypervisor gave to other machines during the window:
	// a run with a high share measured the neighbours as much as the code.
	steal := 0.0
	if ticks1 > ticks0 {
		steal = float64(steal1-steal0) / float64(ticks1-ticks0)
	}
	r.meta = append(r.meta, fmt.Sprintf("timed_steps=%d timed_mods=%d window_s=%.3f host_steal_frac=%.4f", len(win.lat), win.totalMods(), win.elapsed.Seconds(), steal))
	if len(win.lat) < minP99Steps {
		r.meta = append(r.meta, fmt.Sprintf("warning: %d timed steps, fewer than the %d step_p99_ms needs", len(win.lat), minP99Steps))
	}
	r.e2e = []metric{
		{"throughput_mods_per_s", "mods/s", thr},
		{"step_p50_ms", "ms", p50},
		{"step_p99_ms", "ms", p99},
		{"plan_cost_per_mod", "units/mod", (cost1 - cost0) / mods},
		{"heap_live_mb", "MB", 0},
		{"setup_s", "s", median(setupTimes)},
	}
	win, base = nil, nil
	if r.e2e[4].value, ok = d.liveHeap(w.cycle); !ok {
		return r, nil
	}

	orc, ok := d.finalCheck()
	if !ok {
		return r, nil
	}
	recovery := 0.0
	if w.disk {
		recovery = d.recoverAll(orc)
	}

	errFrac := float64(d.failed) / float64(max(d.attempted, 1))
	degFrac := float64(d.degraded) / float64(max(d.notes, 1))
	r.report = []metric{
		{"recovery_s", "s", recovery},
		{"disk_write_bytes_per_mod", "B/mod", float64(written1-written0) / mods},
		{"error_frac", "fraction", errFrac},
		{"degraded_frac", "fraction", degFrac},
		{"policy.max_refresh_over_qos", "ratio", d.maxRefresh},
		{"throughput.half_ratio", "ratio", thrDrift},
		{"alloc.half_ratio", "ratio", allocDrift},
		{"model.cost_units", "units", cost1 - cost0},
	}
	if lay != nil {
		r.layer = lay.split(inst, orc, dur1.Syncs-dur0.Syncs, dur1.SyncBytes-dur0.SyncBytes, w.shared)
		r.layer = append(r.layer,
			metric{"obs.overhead_frac", "fraction", overhead},
			metric{"storage.load.ms", "ms", 1000 * median(loads)},
			metric{"pubsub.subscribe.ms", "ms", 1000 * median(subscribes)},
			metric{"viewc.compile.ms", "ms", 1000 * median(compiles)},
		)
		r.layer = append(r.layer, r.report...)
		r.layer = append(r.layer, metric{"model.ms_per_unit", "ms/unit", layerValue(r.layer, "ivm.drain.ms") * float64(lay.steps) / math.Max(cost1-cost0, 1e-9)})
	}

	if allocDrift < 1/(1+maxDrift) || allocDrift > 1+maxDrift {
		d.fail("per-step work drifted within the window: bytes allocated per mod, second half / first half = %.3f", allocDrift)
	}
	if d.maxRefresh > 1+1e-9 {
		d.fail("a notification's refresh cost exceeded its QoS bound: max RefreshCost/C = %.4f", d.maxRefresh)
	}
	if d.degraded > 0 {
		d.fail("%d degraded notifications on a fault-free run", d.degraded)
	}
	r.ok = d.failed == 0
	return r, nil
}

// split derives the per-layer metrics of the traced half.
func (l *layers) split(inst *instance, orc *oracle, syncs, syncBytes int, shared bool) []metric {
	snap := l.reg.Snapshot()
	steps := float64(max(l.steps, 1))
	mods := float64(max(l.mods, 1))
	perStep := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / steps }
	residual := perStep(l.step - l.sub)
	checkpoint := 1000 * series(snap, "ivm_checkpoint_seconds") / steps
	trim := 0.0
	if shared {
		trim = residual - checkpoint
	}
	drains := series(snap, "ivm_drains_total")
	drained := series(snap, "ivm_drained_mods_total")
	perDrain := 0.0
	if drains > 0 {
		perDrain = drained / drains
	}
	shardSteps := float64(max(l.shardSteps, 1))
	busyMax, barrier, imbalance := 0.0, 0.0, 0.0
	if l.shardSteps > 0 {
		busyMax = float64(l.busyMax) / float64(time.Millisecond) / shardSteps
		barrier = float64(l.barrier) / float64(time.Millisecond) / shardSteps
		imbalance = l.imbalance / shardSteps
	}
	gcFrac := 0.0
	if cpu := l.endRT.totalCPU - l.startRT.totalCPU; cpu > 0 {
		gcFrac = (l.endRT.gcCPU - l.startRT.gcCPU) / cpu
	}
	df := inst.b.DataflowStats()
	calls := float64(max(l.pol.calls.Load(), 1))
	return []metric{
		{"pubsub.publish.us_per_mod", "us/mod", float64(l.publish) / float64(time.Microsecond) / mods},
		{"pubsub.publish.allocs_per_mod", "allocs/mod", float64(l.publishA) / mods},
		{"pubsub.endstep.ms", "ms", perStep(l.endStep)},
		{"pubsub.endstep.allocs", "allocs", float64(l.endStepA) / steps},
		{"pubsub.sub.ms", "ms", perStep(l.sub)},
		{"pubsub.notify.ms", "ms", perStep(l.notify)},
		{"pubsub.step_residual.ms", "ms", residual},
		{"dataflow.trim.ms", "ms", trim},
		{"dataflow.operators", "count", float64(df.Nodes)},
		{"dataflow.intern_hits", "count", float64(df.InternHits)},
		{"dataflow.max_fanout", "count", float64(df.MaxFanout)},
		{"policy.act.us_per_call", "us", float64(l.pol.ns.Load()) / 1000 / calls},
		{"policy.mods_per_drain", "mods", perDrain},
		{"ivm.drain.ms", "ms", 1000 * series(snap, "ivm_drain_latency_seconds") / steps},
		{"ivm.drained_mods", "mods", drained / steps},
		{"ivm.checkpoint.ms", "ms", checkpoint},
		{"ivm.checkpoint.bytes", "B", (series(snap, "ivm_checkpoint_bytes") + series(snap, "ivm_checkpoint_delta_bytes")) / steps},
		{"ivm.checkpoint.compactions", "count", series(snap, "ivm_checkpoint_compactions_total") / steps},
		{"ivm.wal.appends_per_mod", "appends/mod", series(snap, "ivm_wal_appends_total") / mods},
		{"durable.wal_sync.count", "count", float64(syncs) / steps},
		{"durable.wal_sync.bytes_per_mod", "B/mod", float64(syncBytes) / mods},
		{"pubsub.shard.busy_ms_max", "ms", busyMax},
		{"pubsub.shard.imbalance", "ratio", imbalance},
		{"pubsub.shard.barrier_ms", "ms", barrier},
		{"go.gc_cpu_frac", "fraction", gcFrac},
		{"go.alloc_bytes_per_mod", "B/mod", float64(l.endRT.allocBytes-l.startRT.allocBytes) / mods},
		{"exec.recompute.ms_per_view", "ms", float64(orc.elapsed) / float64(time.Millisecond) / float64(len(inst.views))},
	}
}

func layerValue(ms []metric, name string) float64 {
	for _, m := range ms {
		if m.name == name {
			return m.value
		}
	}
	return 0
}

// runMeta records what a speed claim needs next to it: CPU, core
// counts, Go version, the data directory's file system, and the run's
// settings.
func runMeta(o options, w *workload) []string {
	engine := "classic"
	if w.shared {
		engine = "shared-dataflow"
	}
	durability := "memory"
	if w.disk {
		durability = "durable.Store on in-memory files"
	}
	return []string{
		fmt.Sprintf("workload=%s seed=%d seconds=%g trace=%t", o.workload, o.seed, o.seconds, o.trace),
		fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version()),
		fmt.Sprintf("engine=%s shards=%d checkpoint_every=%d durability=%q", engine, w.shards, w.cpEvery, durability),
		fmt.Sprintf("loop=closed publishers=1 setups=%d", setups),
	}
}

// cpuTicks reads the host-wide CPU time counters from /proc/stat: the
// ticks stolen from this machine by its hypervisor, and all ticks. Both
// are 0 where /proc is unavailable.
func cpuTicks() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name from /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// print writes the human-readable report and, last, the JSON result
// line: the end-to-end metrics, or the per-layer ones for a traced run.
func (r *result) print(out io.Writer) error {
	for _, m := range r.meta {
		fmt.Fprintf(out, "# %s\n", m)
	}
	section := func(title string, ms []metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(out, "# %s\n", title)
		for _, m := range ms {
			fmt.Fprintf(out, "#   %-32s %14.6g %s\n", m.name, m.value, m.unit)
		}
	}
	section("end-to-end", r.e2e)
	if r.o.trace {
		section("per-layer (traced half of the window)", r.layer)
	} else {
		section("also measured", r.report)
	}
	for _, e := range r.d.errs {
		fmt.Fprintf(out, "# FAIL %s\n", e)
	}
	ms := r.e2e
	if r.o.trace {
		ms = r.layer
	}
	vals := map[string]any{}
	for _, m := range ms {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
		}
		vals[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   r.ok,
		"attempted": r.d.attempted,
		"failed":    r.d.failed,
		"metrics":   vals,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

package pubsub

import (
	"fmt"
	"path"
	"strings"
	"time"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// Chaos harness: run one deterministic pub/sub workload twice — once
// fault-free, once under a seeded injector with retries, rollbacks,
// degradation, checkpoints, and crash-recovery live — and compare the
// two executions byte for byte. Because the Seeded injector caps
// consecutive failures below the broker's retry budget and recovery is
// an exact redo, the faulted run must produce identical notifications
// and identical final view contents; any divergence is a fault-handling
// bug. This is the paper's QoS guarantee restated as a testable
// property: injected faults may cost retries, but they may never cost
// correctness or the constraint C.

// ChaosConfig parameterizes one chaos comparison.
type ChaosConfig struct {
	// Seed drives both the workload generator and the fault schedule.
	Seed int64
	// Steps is the number of broker steps to run (default 60).
	Steps int
	// Rates is the per-site fault mix; the zero value selects
	// fault.DefaultRates().
	Rates fault.Rates
	// CheckpointEvery is the broker checkpoint cadence (default 5).
	CheckpointEvery int
	// Shards selects the runtime: 0 runs the serial broker on the legacy
	// east/west workload; n >= 1 runs the sharded runtime with n shards
	// on a widened workload (2n regions), per-shard fault injectors, and
	// mid-run cost/health sampling folded into the transcripts.
	Shards int
	// ChainDepth is the checkpoint-chain depth of the incremental
	// recovery variants; <= 0 derives it from the seed (1..4), so the
	// seed sweep covers the depth space.
	ChainDepth int
	// Shared adds two shared-dataflow variants: the whole workload re-run
	// on the shared operator-graph runtime (SetSharedDataflow), once
	// fault-free and once faulted. Both must stay byte-identical to the
	// classic per-maintainer baseline — the fault-free comparison proves
	// the hash-consed graph computes the same views, the faulted one that
	// snapshot+WAL recovery on the shared runtime is an exact redo.
	Shared bool
	// Disk adds a disk-backed variant: the faulted run is repeated with
	// every subscription's WAL and checkpoint segments living in files,
	// so injected crashes recover through the corruption-hardened disk
	// path. With intact files the variant must stay byte-identical to
	// the baseline.
	Disk bool
	// DataDir roots the disk variants' files; empty runs them over
	// per-namespace in-memory file systems (the hermetic default). A
	// non-empty DataDir implies Disk.
	DataDir string
	// DiskFaults additionally repeats the disk run with a seeded
	// byte-level media injector (torn writes, bit flips, truncations,
	// dropped files, skipped renames) under the stores. Implies Disk.
	// The outcome per seed is either byte-identity with the baseline or
	// a loud full-refresh fallback with corruption counted — silent
	// divergence fails the comparison.
	DiskFaults bool
	// MediaRates is the damage mix of the DiskFaults variant; the zero
	// value selects fault.DefaultMediaRates().
	MediaRates fault.MediaRates
}

// ChaosReport summarizes a faulted-vs-baseline comparison.
type ChaosReport struct {
	Seed          int64
	Steps         int
	Notifications int
	// Shards is the shard count of a sharded-mode run; 0 for the serial
	// broker.
	Shards int
	// Faults is the per-site injected-fault count of the faulted run.
	Faults map[fault.Site]int
	// TotalFaults is the number of faults injected.
	TotalFaults int
	// Degraded counts degraded notifications in the faulted run (0 when
	// the retry budget covers the injector's burst bound, as it does for
	// the Seeded injector).
	Degraded int
	// Identical reports whether notifications and final view contents of
	// every faulted variant are byte-identical to the baseline.
	Identical bool
	// Variants names the recovery configurations that were compared
	// against the baseline (full checkpoints, incremental chain, and the
	// optional shared and disk variants; sharded mode starts with one
	// combined entry).
	Variants []string
	// Diff holds a diagnostic excerpt of the first divergence, prefixed
	// with the diverging variant's name.
	Diff string

	// MediaFaults is the per-kind byte-level damage injected in the
	// disk-faulted variant, TotalMediaFaults their sum.
	MediaFaults      map[fault.MediaFault]int
	TotalMediaFaults int
	// DiskStats aggregates the disk-faulted variant's durability
	// counters (syncs, detected corruption, quarantined artifacts,
	// full-refresh fallbacks).
	DiskStats durable.Stats
	// DiskExact reports whether the disk-faulted variant stayed
	// byte-identical to the baseline despite the injected damage. When
	// false, the run must have degraded loudly (DiskStats.Fallbacks >
	// 0); a silent divergence flips Identical instead.
	DiskExact bool
}

// chaosEvent is one scripted modification.
type chaosEvent struct {
	table string
	mod   ivm.Mod
}

// DemoDB builds the deterministic base database of the demo and chaos
// workloads — stations(stationkey, region) and sales(salekey, station,
// amount), sized by the spec — without a broker on top. The compiler
// front end calibrates catalog views against it, and tests use it to
// hand-wire comparison brokers.
func DemoDB(spec WorkloadSpec) (*storage.DB, error) {
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		return nil, err
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < int64(spec.Stations); i++ {
		region := spec.Regions[i%int64(len(spec.Regions))]
		if err := stations.Insert(storage.Row{storage.I(i), storage.S(region)}); err != nil {
			return nil, err
		}
	}
	if err := stations.CreateIndex("st_pk", storage.HashIndex, "stationkey"); err != nil {
		return nil, err
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		return nil, err
	}
	sales, err := db.CreateTable(sa)
	if err != nil {
		return nil, err
	}
	for i := int64(0); i < int64(spec.SalesRows); i++ {
		if err := sales.Insert(storage.Row{storage.I(i), storage.I(i % int64(spec.Stations)), storage.F(10)}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// chaosScript pregenerates the per-step modification schedule, so the
// baseline and faulted runs see the exact same stream. The generator
// itself lives in workload.go (eventGen), shared with the serve demo.
func chaosScript(seed int64, steps int, spec WorkloadSpec) [][]chaosEvent {
	g := newEventGen(seed, spec)
	script := make([][]chaosEvent, steps)
	for t := range script {
		script[t] = g.step()
	}
	return script
}

// chaosModel builds the per-subscription cost model (sales, stations).
func chaosModel() (*core.CostModel, error) {
	fSales, err := costfn.NewLinear(0.5, 0.1)
	if err != nil {
		return nil, err
	}
	fStations, err := costfn.NewLinear(0.05, 4)
	if err != nil {
		return nil, err
	}
	return core.NewCostModel(fSales, fStations), nil
}

// chaosQoS is the shared response-time constraint C of the demo
// subscriptions.
const chaosQoS = 40.0

// regionQuery is one region's aggregate content query: total and count
// of sales at that region's stations.
func regionQuery(region string) string {
	return fmt.Sprintf(`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st
		WHERE s.station = st.stationkey AND st.region = '%s'`, region)
}

// chaosSampleEvery is the cadence (in steps) of the mid-run cost/health
// samples a chaos run folds into its transcript.
const chaosSampleEvery = 10

// chaosVariant is one configuration the chaos harness runs the script
// under.
type chaosVariant struct {
	name string
	// depth is the checkpoint-chain depth (0: a full base every
	// checkpoint).
	depth  int
	shared bool
	// injectors builds each shard's fault injector; nil runs fault-free.
	injectors func(shard int) fault.Injector
	opener    durable.Opener
}

// run executes the scripted workload under v on a fresh demo workload
// (cfg's seed and shard count, spec's tables and subscriptions) and
// returns chaosRun's renderings plus the aggregated durability
// counters. The retry jitter is seeded from the same seed as the
// workload, so the backoff sequence is part of the reproducible
// execution, not noise.
func (cfg ChaosConfig) run(v chaosVariant, spec WorkloadSpec, script [][]chaosEvent) (transcript, finals string, degraded int, stats durable.Stats, err error) {
	w, err := NewDemoWorkload(DemoConfig{
		Seed: cfg.Seed, Spec: spec, Shards: cfg.Shards, Shared: v.shared,
		Injectors: v.injectors, Opener: v.opener,
		Subscribe: func(_ *storage.DB, rt Runtime) error {
			rt.setSleep(func(time.Duration) {})
			rt.SetCheckpointEvery(cfg.CheckpointEvery)
			rt.SetCheckpointChainDepth(v.depth)
			return subscribeDemo(rt, spec)
		},
	})
	if err != nil {
		return "", "", 0, stats, err
	}
	transcript, finals, degraded, err = chaosRun(w.Broker, script)
	return transcript, finals, degraded, w.Broker.DurabilityStats(), err
}

// chaosRun drives the scripted workload through rt and returns the
// rendered transcript (notifications plus mid-run samples), the rendered
// final view contents, and the degraded-notification count. Every
// chaosSampleEvery steps it samples each subscription's accumulated cost
// and pending vector. Both brokers route every publish before it
// returns, so the samples are plain reads on either.
func chaosRun(rt Runtime, script [][]chaosEvent) (transcript, finals string, degraded int, err error) {
	names := rt.Subscriptions()
	var out strings.Builder
	for t, evs := range script {
		for _, ev := range evs {
			if err := rt.Publish(ev.table, ev.mod); err != nil {
				return "", "", 0, fmt.Errorf("step %d: publish %s: %w", t, ev.table, err)
			}
		}
		if (t+1)%chaosSampleEvery == 0 {
			for _, name := range names {
				cost, err := rt.TotalCost(name)
				if err != nil {
					return "", "", 0, err
				}
				h, err := rt.Health(name)
				if err != nil {
					return "", "", 0, err
				}
				fmt.Fprintf(&out, "sample step=%d sub=%s cost=%.9g pending=%v\n",
					t, name, cost, h.Pending)
			}
		}
		ns, err := rt.EndStep()
		if err != nil {
			return "", "", 0, fmt.Errorf("step %d: %w", t, err)
		}
		for _, n := range ns {
			if n.Degraded {
				degraded++
			} else if !core.ApproxLE(n.RefreshCost, chaosQoS) {
				return "", "", 0, fmt.Errorf("step %d: %s: non-degraded refresh cost %.6g > QoS %.6g",
					t, n.Subscription, n.RefreshCost, chaosQoS)
			}
			fmt.Fprintf(&out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
				n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
				n.RefreshCost, renderRows(n.Rows))
		}
	}
	var fin strings.Builder
	for _, name := range names {
		rows, err := rt.Result(name)
		if err != nil {
			return "", "", 0, err
		}
		fmt.Fprintf(&fin, "%s: %s\n", name, renderRows(rows))
	}
	return out.String(), fin.String(), degraded, nil
}

// renderRows renders rows canonically for byte comparison.
func renderRows(rows []storage.Row) string {
	parts := make([]string, len(rows))
	for i, r := range rows {
		parts[i] = storage.EncodeKey(r...)
	}
	return strings.Join(parts, "|")
}

// chaosChainDepth resolves the incremental chain depth for a seed: an
// explicit config value wins, otherwise it derives from the seed so a
// seed sweep covers the depth space.
func chaosChainDepth(cfg ChaosConfig) int {
	if cfg.ChainDepth > 0 {
		return cfg.ChainDepth
	}
	return 1 + int(((cfg.Seed%4)+4)%4)
}

// RunChaos runs the seeded workload fault-free once and faulted once per
// recovery variant — full checkpoints (chain depth 0) and an incremental
// delta chain that rolls over at its depth on the serial broker, the
// chain on cfg.Shards shards in sharded mode, and optionally the shared
// engine and the chain on disk — and compares every execution byte for
// byte. The fault schedule is identical across variants (neither
// checkpoint layout nor engine changes which sites are polled), so any
// divergence isolates a bug in that variant's recovery path. Each shard
// carries its own seeded fault stream, shard 0's equal to the serial
// broker's; every injector is seeded from the workload seed, so the
// whole comparison is reproducible from one integer (plus, in sharded
// mode, the shard count).
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if cfg.Steps <= 0 {
		cfg.Steps = 60
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5
	}
	if cfg.Rates == (fault.Rates{}) {
		cfg.Rates = fault.DefaultRates()
	}
	if cfg.DataDir != "" || cfg.DiskFaults {
		cfg.Disk = true
	}
	if cfg.MediaRates == (fault.MediaRates{}) {
		cfg.MediaRates = fault.DefaultMediaRates()
	}
	// Serial mode runs the legacy east/west workload; sharded mode widens
	// it to two regions per shard.
	spec, prefix, label := DefaultWorkloadSpec(), "", fmt.Sprintf("chaos seed %d", cfg.Seed)
	if cfg.Shards > 0 {
		spec, prefix = ScaledWorkloadSpec(2*cfg.Shards), "sharded-"
		label += fmt.Sprintf(" shards %d", cfg.Shards)
	}
	script := chaosScript(cfg.Seed, cfg.Steps, spec)
	depth := chaosChainDepth(cfg)

	// The baseline runs with the incremental variant's depth: a
	// fault-free run's observable output must not depend on checkpoint
	// layout at all, so comparing it against every variant also proves
	// the chain shape alone perturbs nothing.
	baseT, baseF, _, _, err := cfg.run(chaosVariant{depth: depth}, spec, script)
	if err != nil {
		return nil, fmt.Errorf("%s: baseline run: %w", label, err)
	}
	rep := &ChaosReport{Seed: cfg.Seed, Steps: cfg.Steps, Shards: cfg.Shards, Identical: true}
	for _, line := range strings.Split(baseT, "\n") {
		if line != "" && !strings.HasPrefix(line, "sample ") {
			rep.Notifications++
		}
	}
	diverged := func(name, why, t, f string) {
		rep.Identical = false
		if rep.Diff == "" {
			rep.Diff = name + why + firstDiff(baseT+baseF, t+f)
		}
	}

	// Every faulted variant sees the same fault schedule; the report
	// counts it once, from the injectors the first variant's factory
	// hands out (called sequentially at setup, before any faulted work,
	// so the append does not race the concurrent step barrier).
	faults := SeededShardInjectors(cfg.Seed, cfg.Rates)
	var counted []*fault.Seeded
	countFaults := func(shard int) fault.Injector {
		inj := faults(shard).(*fault.Seeded)
		counted = append(counted, inj)
		return inj
	}
	variants := []chaosVariant{
		{name: "full", depth: 0, injectors: countFaults},
		{name: fmt.Sprintf("incremental(depth=%d)", depth), depth: depth, injectors: faults},
	}
	if cfg.Shards > 0 {
		variants = []chaosVariant{{name: fmt.Sprintf("sharded(depth=%d)", depth), depth: depth, injectors: countFaults}}
	}
	var shared, disk []chaosVariant
	if cfg.Shared {
		// The same workload on the hash-consed operator graph: fault-free
		// first (engine equivalence alone), then faulted (crash recovery
		// restores each view's sink from its snapshot plus WAL while the
		// graph itself carries on).
		shared = []chaosVariant{
			{name: prefix + "shared", depth: depth, shared: true},
			{name: prefix + "shared-faulted", depth: depth, shared: true, injectors: faults},
		}
	}
	if cfg.Disk {
		// The clean-disk variant must be byte-identical like the in-memory
		// ones: with intact files, disk recovery is an exact redo.
		disk = []chaosVariant{{name: fmt.Sprintf("%sdisk(depth=%d)", prefix, depth), depth: depth,
			injectors: faults, opener: cfg.diskOpener("disk", nil)}}
	}
	// The two modes have always listed these in different orders; keep
	// each mode's variants column stable across releases.
	if cfg.Shards > 0 {
		variants = append(append(variants, shared...), disk...)
	} else {
		variants = append(append(variants, disk...), shared...)
	}
	for i, v := range variants {
		rep.Variants = append(rep.Variants, v.name)
		t, f, degraded, _, err := cfg.run(v, spec, script)
		if err != nil {
			return nil, fmt.Errorf("%s: %s run: %w", label, v.name, err)
		}
		if i == 0 {
			rep.Degraded = degraded
			rep.Faults = map[fault.Site]int{}
			for _, inj := range counted {
				for site, n := range inj.Fired() {
					rep.Faults[site] += n
				}
				rep.TotalFaults += inj.Total()
			}
		}
		if t != baseT || f != baseF {
			diverged(v.name, " variant: ", t, f)
		}
	}
	if cfg.DiskFaults {
		name := fmt.Sprintf("%sdisk-faulted(depth=%d)", prefix, depth)
		rep.Variants = append(rep.Variants, name)
		var medias []*fault.Media
		opener := trackedOpener(cfg.diskOpener("disk-faulted", &cfg.MediaRates), &medias)
		t, f, _, stats, err := cfg.run(chaosVariant{name: name, depth: depth, injectors: faults, opener: opener}, spec, script)
		if err != nil {
			return nil, fmt.Errorf("%s: %s run: %w", label, name, err)
		}
		rep.DiskStats = stats
		rep.MediaFaults = map[fault.MediaFault]int{}
		for _, m := range medias {
			for kind, n := range m.Fired() {
				rep.MediaFaults[kind] += n
			}
			rep.TotalMediaFaults += m.Total()
		}
		rep.DiskExact = t == baseT && f == baseF
		// Divergence is acceptable only when the run degraded loudly: at
		// least one recovery gave up on the damaged artifacts and rebuilt
		// from the live tables, counting the corruption as it went. A
		// divergence with zero fallbacks is silent data loss.
		if !rep.DiskExact && stats.Fallbacks == 0 {
			diverged(name, " variant diverged without a fallback: ", t, f)
		}
	}
	return rep, nil
}

// diskOpener builds the durable-store opener of one disk variant:
// directory-backed under DataDir/seed-<n>/<variant> when DataDir is
// set, per-namespace in-memory file systems otherwise; a non-nil rates
// inserts the seeded byte-level media injector underneath each store.
func (cfg ChaosConfig) diskOpener(variant string, rates *fault.MediaRates) durable.Opener {
	if cfg.DataDir == "" {
		if rates == nil {
			return durable.MemOpener()
		}
		return durable.FaultyMemOpener(cfg.Seed, *rates)
	}
	root := path.Join(cfg.DataDir, fmt.Sprintf("seed-%d", cfg.Seed), variant)
	if rates == nil {
		return durable.DirOpener(root)
	}
	return durable.FaultyDirOpener(root, cfg.Seed, *rates)
}

// trackedOpener records the media injector of every store open opens,
// so a harness can aggregate the injected damage after the run. Opens
// happen sequentially at Subscribe time, before any concurrent work, so
// the append is unsynchronized on purpose.
func trackedOpener(open durable.Opener, medias *[]*fault.Media) durable.Opener {
	return func(ns string) (*durable.Store, error) {
		st, err := open(ns)
		if err == nil {
			if m := st.Media(); m != nil {
				*medias = append(*medias, m)
			}
		}
		return st, err
	}
}

// firstDiff excerpts the first divergence between two transcripts.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) || i < len(lb); i++ {
		va, vb := "", ""
		if i < len(la) {
			va = la[i]
		}
		if i < len(lb) {
			vb = lb[i]
		}
		if va != vb {
			return fmt.Sprintf("line %d:\n  baseline: %s\n  faulted:  %s", i+1, va, vb)
		}
	}
	return ""
}

package main

import (
	"runtime/metrics"
	"sync/atomic"
	"time"

	"abivm/internal/core"
	"abivm/internal/obs"
	"abivm/internal/policy"
	"abivm/internal/pubsub"
)

// policyStats times every policy.Act call of the traced run. The broker
// calls Act from shard worker goroutines, so the counters are atomic.
type policyStats struct {
	on    atomic.Bool
	ns    atomic.Int64
	calls atomic.Int64
}

// wrap installs a timing wrapper around the subscription's policy — the
// broker's default (the marginal-rate online policy) when none is set.
func (p *policyStats) wrap(s *pubsub.Subscription) {
	inner := s.Policy
	if inner == nil {
		inner = policy.NewOnlineMarginal(s.Model, s.QoS, nil)
	}
	s.Policy = &timedPolicy{inner: inner, st: p}
}

// timedPolicy forwards to the wrapped policy, timing Act while its
// stats are switched on.
type timedPolicy struct {
	inner policy.Policy
	st    *policyStats
}

func (t *timedPolicy) Name() string { return t.inner.Name() }
func (t *timedPolicy) Reset(n int)  { t.inner.Reset(n) }

func (t *timedPolicy) Act(step int, d, pre core.Vector, refresh bool) core.Vector {
	if !t.st.on.Load() {
		return t.inner.Act(step, d, pre, refresh)
	}
	start := time.Now()
	act := t.inner.Act(step, d, pre, refresh)
	t.st.ns.Add(int64(time.Since(start)))
	t.st.calls.Add(1)
	return act
}

// runtimeSample holds the Go runtime counters the layer split compares
// across the traced half.
type runtimeSample struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime(buf []metrics.Sample) runtimeSample {
	buf[0].Name = "/cpu/classes/gc/total:cpu-seconds"
	buf[1].Name = "/cpu/classes/total:cpu-seconds"
	metrics.Read(buf[:2])
	gc, total := buf[0].Value.Float64(), buf[1].Value.Float64()
	return runtimeSample{allocBytes: allocBytes(buf), gcCPU: gc, totalCPU: total}
}

// readUint64 reads one cumulative runtime counter.
func readUint64(buf []metrics.Sample, name string) uint64 {
	buf[0].Name = name
	metrics.Read(buf[:1])
	return buf[0].Value.Uint64()
}

// allocObjects reads the heap allocation count, for the per-call split
// around Publish and EndStep. runtime/metrics credits allocations when a
// P's allocation cache flushes, so a single step's count is lumpy; the
// per-step means over a run are what the split reports.
func allocObjects(buf []metrics.Sample) uint64 {
	return readUint64(buf, "/gc/heap/allocs:objects")
}

// allocBytes reads the bytes allocated so far.
func allocBytes(buf []metrics.Sample) uint64 {
	return readUint64(buf, "/gc/heap/allocs:bytes")
}

// layers accumulates the traced run's per-layer split. The benchmark's
// own clocks bracket Publish and EndStep; the broker's step/sub/notify
// spans are read back from the tracer after every step.
type layers struct {
	reg *obs.Registry
	tr  *obs.Tracer
	pol *policyStats
	buf []metrics.Sample

	lastSpan uint64
	steps    int
	mods     int

	publish, endStep   time.Duration
	publishA, endStepA uint64
	sub, notify, step  time.Duration
	busyMax, barrier   time.Duration
	imbalance          float64
	shardSteps         int

	startRT, endRT runtimeSample
}

// newLayers attaches a fresh registry and tracer to b and switches the
// policy timer on.
func newLayers(b broker, pol *policyStats) *layers {
	l := &layers{reg: obs.NewRegistry(), tr: obs.NewTracer(1024), pol: pol, buf: make([]metrics.Sample, 2)}
	b.SetObs(l.reg, l.tr)
	pol.on.Store(true)
	l.startRT = readRuntime(l.buf)
	return l
}

// stepTrace brackets one traced step.
type stepTrace struct {
	l      *layers
	t0, t1 time.Time
	a0, a1 uint64
}

func (l *layers) beginPublish() stepTrace {
	a := allocObjects(l.buf)
	return stepTrace{l: l, a0: a, t0: time.Now()}
}

func (s *stepTrace) endPublish() {
	s.t1 = time.Now()
	s.a1 = allocObjects(s.l.buf)
}

// endStep closes the step after EndStep returned and folds the step's
// spans into the split.
func (s *stepTrace) endStep(mods int) {
	t2 := time.Now()
	a2 := allocObjects(s.l.buf)
	l := s.l
	l.steps++
	l.mods += mods
	l.publish += s.t1.Sub(s.t0)
	l.endStep += t2.Sub(s.t1)
	l.publishA += s.a1 - s.a0
	l.endStepA += a2 - s.a1

	// Span IDs grow in start order and every span of this step started
	// after every span of the previous one, so the step's spans are
	// exactly those above the last ID seen.
	var shardBusy []time.Duration
	last := l.lastSpan
	for _, r := range l.tr.Recent(256) {
		if r.ID <= l.lastSpan {
			continue
		}
		if r.ID > last {
			last = r.ID
		}
		switch r.Name {
		case "step":
			l.step += r.Duration
			shardBusy = append(shardBusy, r.Duration)
		case "sub":
			l.sub += r.Duration
		case "notify":
			l.notify += r.Duration
		}
	}
	l.lastSpan = last
	if len(shardBusy) > 1 {
		var max, sum time.Duration
		for _, d := range shardBusy {
			sum += d
			if d > max {
				max = d
			}
		}
		l.shardSteps++
		l.busyMax += max
		l.barrier += t2.Sub(s.t1) - max
		l.imbalance += float64(max) / (float64(sum) / float64(len(shardBusy)))
	}
}

// finish stops the policy timer and takes the closing runtime sample.
func (l *layers) finish() {
	l.pol.on.Store(false)
	l.endRT = readRuntime(l.buf)
}

// series sums a metric's value (counters, gauges) or sum (histograms)
// across every label set in the registry snapshot.
func series(snap []obs.MetricSnapshot, name string) float64 {
	total := 0.0
	for _, m := range snap {
		if m.Name != name {
			continue
		}
		if m.Type == "histogram" {
			total += m.Sum
		} else {
			total += m.Value
		}
	}
	return total
}

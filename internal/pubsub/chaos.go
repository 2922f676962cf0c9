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
	// quiesced mid-run cost/health sampling folded into the transcripts.
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

// chaosDB builds the legacy two-region base database.
func chaosDB() (*storage.DB, error) {
	return chaosDBSpec(DefaultWorkloadSpec())
}

// chaosDBSpec builds the deterministic base database of the chaos
// workload — stations(stationkey, region) and sales(salekey, station,
// amount) — sized by the spec.
func chaosDBSpec(spec WorkloadSpec) (*storage.DB, error) {
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
	g := newEventGenSpec(seed, spec)
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

// chaosRun executes the scripted workload against a fresh broker under
// the given injector and returns the rendered notification transcript,
// the rendered final view contents, the degraded-notification count,
// and (for a non-nil opener) the aggregated durability counters. The
// retry jitter is seeded from the same seed as the workload, so the
// backoff sequence is part of the reproducible execution, not noise.
func chaosRun(script [][]chaosEvent, seed int64, inj fault.Injector, cpEvery, chainDepth int, opener durable.Opener, shared bool) (transcript, finals string, degraded int, stats durable.Stats, err error) {
	db, err := chaosDB()
	if err != nil {
		return "", "", 0, stats, err
	}
	b := NewBroker(db)
	b.setSleep(func(time.Duration) {})
	b.SetRetrySeed(seed)
	b.SetCheckpointEvery(cpEvery)
	b.SetCheckpointChainDepth(chainDepth)
	if opener != nil {
		b.SetStoreOpener(opener)
	}
	if shared {
		if err := b.SetSharedDataflow(true); err != nil {
			return "", "", 0, stats, err
		}
	}
	if inj != nil {
		b.SetInjector(inj)
	}
	subs, err := demoSubscriptions()
	if err != nil {
		return "", "", 0, stats, err
	}
	for _, sc := range subs {
		if err := b.Subscribe(sc); err != nil {
			return "", "", 0, stats, err
		}
	}
	var out strings.Builder
	for t, evs := range script {
		for _, ev := range evs {
			if err := b.Publish(ev.table, ev.mod); err != nil {
				return "", "", 0, stats, fmt.Errorf("step %d: publish %s: %w", t, ev.table, err)
			}
		}
		ns, err := b.EndStep()
		if err != nil {
			return "", "", 0, stats, fmt.Errorf("step %d: %w", t, err)
		}
		for _, n := range ns {
			if n.Degraded {
				degraded++
			} else if !core.ApproxLE(n.RefreshCost, chaosQoS) {
				return "", "", 0, stats, fmt.Errorf("step %d: %s: non-degraded refresh cost %.6g > QoS %.6g",
					t, n.Subscription, n.RefreshCost, chaosQoS)
			}
			fmt.Fprintf(&out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
				n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
				n.RefreshCost, renderRows(n.Rows))
		}
	}
	var fin strings.Builder
	for _, sc := range subs {
		rows, err := b.Result(sc.Name)
		if err != nil {
			return "", "", 0, stats, err
		}
		fmt.Fprintf(&fin, "%s: %s\n", sc.Name, renderRows(rows))
	}
	return out.String(), fin.String(), degraded, b.DurabilityStats(), nil
}

// chaosSampleEvery is the cadence (in steps) of the mid-run cost/health
// samples the sharded chaos run folds into its transcript.
const chaosSampleEvery = 10

// chaosRunSharded is chaosRun on the sharded runtime: the same scripted
// workload against a fresh ShardedBroker, with per-shard injectors from
// the factory (nil = fault-free baseline). Every chaosSampleEvery steps
// it quiesces the shards and samples each subscription's accumulated
// cost and pending vector into the transcript — reading them without the
// quiesce would race the shard workers mid-drain and make the sample
// depend on scheduling, exactly the bug the quiesce exists to prevent.
func chaosRunSharded(script [][]chaosEvent, seed int64, shards int, spec WorkloadSpec, factory func(int) fault.Injector, cpEvery, chainDepth int, opener durable.Opener, shared bool) (transcript, finals string, degraded int, stats durable.Stats, err error) {
	db, err := chaosDBSpec(spec)
	if err != nil {
		return "", "", 0, stats, err
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: shards})
	defer sb.Close()
	sb.setSleep(func(time.Duration) {})
	sb.SetRetrySeed(seed)
	sb.SetCheckpointEvery(cpEvery)
	sb.SetCheckpointChainDepth(chainDepth)
	if opener != nil {
		sb.SetStoreOpener(opener)
	}
	if shared {
		if err := sb.SetSharedDataflow(true); err != nil {
			return "", "", 0, stats, err
		}
	}
	if factory != nil {
		sb.SetInjectors(factory)
	}
	subs, err := demoSubscriptionsSpec(spec)
	if err != nil {
		return "", "", 0, stats, err
	}
	for _, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			return "", "", 0, stats, err
		}
	}
	var out strings.Builder
	for t, evs := range script {
		for _, ev := range evs {
			if err := sb.Publish(ev.table, ev.mod); err != nil {
				return "", "", 0, stats, fmt.Errorf("step %d: publish %s: %w", t, ev.table, err)
			}
		}
		if (t+1)%chaosSampleEvery == 0 {
			if err := sb.Quiesce(); err != nil {
				return "", "", 0, stats, fmt.Errorf("step %d: quiesce: %w", t, err)
			}
			for _, sc := range subs {
				cost, err := sb.TotalCost(sc.Name)
				if err != nil {
					return "", "", 0, stats, err
				}
				h, err := sb.Health(sc.Name)
				if err != nil {
					return "", "", 0, stats, err
				}
				fmt.Fprintf(&out, "sample step=%d sub=%s cost=%.9g pending=%v\n",
					t, sc.Name, cost, h.Pending)
			}
		}
		ns, err := sb.EndStep()
		if err != nil {
			return "", "", 0, stats, fmt.Errorf("step %d: %w", t, err)
		}
		for _, n := range ns {
			if n.Degraded {
				degraded++
			} else if !core.ApproxLE(n.RefreshCost, chaosQoS) {
				return "", "", 0, stats, fmt.Errorf("step %d: %s: non-degraded refresh cost %.6g > QoS %.6g",
					t, n.Subscription, n.RefreshCost, chaosQoS)
			}
			fmt.Fprintf(&out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
				n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
				n.RefreshCost, renderRows(n.Rows))
		}
	}
	var fin strings.Builder
	for _, sc := range subs {
		rows, err := sb.Result(sc.Name)
		if err != nil {
			return "", "", 0, stats, err
		}
		fmt.Fprintf(&fin, "%s: %s\n", sc.Name, renderRows(rows))
	}
	return out.String(), fin.String(), degraded, sb.DurabilityStats(), nil
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
// recovery variant — full checkpoints (chain depth 0), an incremental
// delta chain that rolls over at its depth, and optionally the same
// chain on disk — and compares every execution byte for byte. The fault schedule is
// identical across variants (checkpoint layout never changes which sites
// are polled), so any divergence isolates a bug in that variant's
// recovery path. All injectors are seeded from the workload seed, so the
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
	if cfg.Shards > 0 {
		return runChaosSharded(cfg)
	}
	script := chaosScript(cfg.Seed, cfg.Steps, DefaultWorkloadSpec())
	depth := chaosChainDepth(cfg)

	// The baseline runs with the incremental variant's depth: a
	// fault-free run's observable output must not depend on checkpoint
	// layout at all, so comparing it against every variant also proves
	// the chain shape alone perturbs nothing.
	baseT, baseF, _, _, err := chaosRun(script, cfg.Seed, nil, cfg.CheckpointEvery, depth, nil, false)
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d: baseline run: %w", cfg.Seed, err)
	}

	type variant struct {
		name   string
		depth  int
		opener durable.Opener
	}
	variants := []variant{
		{"full", 0, nil},
		{fmt.Sprintf("incremental(depth=%d)", depth), depth, nil},
	}
	if cfg.Disk {
		// The clean-disk variant must be byte-identical like the in-memory
		// ones: with intact files, disk recovery is an exact redo.
		variants = append(variants, variant{fmt.Sprintf("disk(depth=%d)", depth), depth, cfg.diskOpener("disk", nil)})
	}
	rep := &ChaosReport{
		Seed:          cfg.Seed,
		Steps:         cfg.Steps,
		Notifications: strings.Count(baseT, "\n"),
		Identical:     true,
	}
	for _, v := range variants {
		rep.Variants = append(rep.Variants, v.name)
		inj := fault.NewSeeded(cfg.Seed, cfg.Rates)
		faultT, faultF, degraded, _, err := chaosRun(script, cfg.Seed, inj, cfg.CheckpointEvery, v.depth, v.opener, false)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %s run: %w", cfg.Seed, v.name, err)
		}
		// Every variant sees the same fault schedule; report the counts
		// once, from the first variant's injector.
		if rep.Faults == nil {
			rep.Faults = inj.Fired()
			rep.TotalFaults = inj.Total()
			rep.Degraded = degraded
		}
		if baseT != faultT || baseF != faultF {
			rep.Identical = false
			if rep.Diff == "" {
				rep.Diff = v.name + " variant: " + firstDiff(baseT+baseF, faultT+faultF)
			}
		}
	}
	if cfg.Shared {
		// Shared-dataflow variants: the same workload on the hash-consed
		// operator graph. Fault-free first (runtime equivalence alone),
		// then faulted (crash recovery restores each view's sink from its
		// snapshot plus WAL while the graph itself carries on).
		for _, v := range []struct {
			name    string
			faulted bool
		}{{"shared", false}, {"shared-faulted", true}} {
			rep.Variants = append(rep.Variants, v.name)
			var inj fault.Injector
			if v.faulted {
				inj = fault.NewSeeded(cfg.Seed, cfg.Rates)
			}
			sT, sF, _, _, err := chaosRun(script, cfg.Seed, inj, cfg.CheckpointEvery, depth, nil, true)
			if err != nil {
				return nil, fmt.Errorf("chaos seed %d: %s run: %w", cfg.Seed, v.name, err)
			}
			if baseT != sT || baseF != sF {
				rep.Identical = false
				if rep.Diff == "" {
					rep.Diff = v.name + " variant: " + firstDiff(baseT+baseF, sT+sF)
				}
			}
		}
	}
	if cfg.DiskFaults {
		name := fmt.Sprintf("disk-faulted(depth=%d)", depth)
		rep.Variants = append(rep.Variants, name)
		var medias []*fault.Media
		opener := trackedOpener(cfg.diskOpener("disk-faulted", &cfg.MediaRates), &medias)
		inj := fault.NewSeeded(cfg.Seed, cfg.Rates)
		faultT, faultF, _, stats, err := chaosRun(script, cfg.Seed, inj, cfg.CheckpointEvery, depth, opener, false)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d: %s run: %w", cfg.Seed, name, err)
		}
		rep.DiskStats = stats
		rep.MediaFaults = map[fault.MediaFault]int{}
		for _, m := range medias {
			for kind, n := range m.Fired() {
				rep.MediaFaults[kind] += n
			}
			rep.TotalMediaFaults += m.Total()
		}
		rep.DiskExact = faultT == baseT && faultF == baseF
		// Divergence is acceptable only when the run degraded loudly: at
		// least one recovery gave up on the damaged artifacts and rebuilt
		// from the live tables, counting the corruption as it went. A
		// divergence with zero fallbacks is silent data loss.
		if !rep.DiskExact && stats.Fallbacks == 0 {
			rep.Identical = false
			if rep.Diff == "" {
				rep.Diff = name + " variant diverged without a fallback: " + firstDiff(baseT+baseF, faultT+faultF)
			}
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

// runChaosSharded is the sharded-mode comparison: baseline and faulted
// runs on cfg.Shards shards over a 2·Shards-region workload, each shard
// carrying an independent seeded fault stream. The transcripts include
// the quiesced mid-run samples, so the comparison also proves the
// sampled costs and pending vectors are schedule-independent.
func runChaosSharded(cfg ChaosConfig) (*ChaosReport, error) {
	spec := ScaledWorkloadSpec(2 * cfg.Shards)
	script := chaosScript(cfg.Seed, cfg.Steps, spec)
	depth := chaosChainDepth(cfg)

	baseT, baseF, _, _, err := chaosRunSharded(script, cfg.Seed, cfg.Shards, spec, nil, cfg.CheckpointEvery, depth, nil, false)
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d shards %d: baseline run: %w", cfg.Seed, cfg.Shards, err)
	}
	// Track the injectors the factory hands out so the report can
	// aggregate fault counts across shards. SetInjectors calls the
	// factory sequentially under the broker lock, before any faulted
	// work, so the append does not race the workers.
	var injs []*fault.Seeded
	base := SeededShardInjectors(cfg.Seed, cfg.Rates)
	factory := func(shard int) fault.Injector {
		inj := base(shard).(*fault.Seeded)
		injs = append(injs, inj)
		return inj
	}
	faultT, faultF, degraded, _, err := chaosRunSharded(script, cfg.Seed, cfg.Shards, spec, factory, cfg.CheckpointEvery, depth, nil, false)
	if err != nil {
		return nil, fmt.Errorf("chaos seed %d shards %d: faulted run: %w", cfg.Seed, cfg.Shards, err)
	}

	rep := &ChaosReport{
		Seed:      cfg.Seed,
		Steps:     cfg.Steps,
		Shards:    cfg.Shards,
		Faults:    map[fault.Site]int{},
		Degraded:  degraded,
		Variants:  []string{fmt.Sprintf("sharded(depth=%d)", depth)},
		Identical: baseT == faultT && baseF == faultF,
	}
	for _, line := range strings.Split(baseT, "\n") {
		if line != "" && !strings.HasPrefix(line, "sample ") {
			rep.Notifications++
		}
	}
	for _, inj := range injs {
		for site, n := range inj.Fired() {
			rep.Faults[site] += n
		}
		rep.TotalFaults += inj.Total()
	}
	if !rep.Identical {
		rep.Diff = firstDiff(baseT+baseF, faultT+faultF)
	}
	if cfg.Shared {
		// Sharded shared-dataflow variants: each shard builds its own
		// operator graph over the views it hosts; fault-free and faulted
		// runs must both match the classic sharded baseline.
		for _, v := range []struct {
			name    string
			factory func(int) fault.Injector
		}{
			{"sharded-shared", nil},
			{"sharded-shared-faulted", SeededShardInjectors(cfg.Seed, cfg.Rates)},
		} {
			rep.Variants = append(rep.Variants, v.name)
			sT, sF, _, _, err := chaosRunSharded(script, cfg.Seed, cfg.Shards, spec, v.factory, cfg.CheckpointEvery, depth, nil, true)
			if err != nil {
				return nil, fmt.Errorf("chaos seed %d shards %d: %s run: %w", cfg.Seed, cfg.Shards, v.name, err)
			}
			if baseT != sT || baseF != sF {
				rep.Identical = false
				if rep.Diff == "" {
					rep.Diff = v.name + " variant: " + firstDiff(baseT+baseF, sT+sF)
				}
			}
		}
	}
	if cfg.Disk {
		// Clean-disk sharded variant: per-store media-free files, the
		// same per-shard fault schedule, byte-identity required. Each
		// store's damage and recovery is keyed to its own namespace, so
		// shard scheduling cannot perturb the outcome.
		name := fmt.Sprintf("sharded-disk(depth=%d)", depth)
		rep.Variants = append(rep.Variants, name)
		dT, dF, _, _, err := chaosRunSharded(script, cfg.Seed, cfg.Shards, spec, SeededShardInjectors(cfg.Seed, cfg.Rates), cfg.CheckpointEvery, depth, cfg.diskOpener("disk", nil), false)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d shards %d: %s run: %w", cfg.Seed, cfg.Shards, name, err)
		}
		if baseT != dT || baseF != dF {
			rep.Identical = false
			if rep.Diff == "" {
				rep.Diff = name + " variant: " + firstDiff(baseT+baseF, dT+dF)
			}
		}
	}
	if cfg.DiskFaults {
		name := fmt.Sprintf("sharded-disk-faulted(depth=%d)", depth)
		rep.Variants = append(rep.Variants, name)
		var medias []*fault.Media
		opener := trackedOpener(cfg.diskOpener("disk-faulted", &cfg.MediaRates), &medias)
		fT, fF, _, stats, err := chaosRunSharded(script, cfg.Seed, cfg.Shards, spec, SeededShardInjectors(cfg.Seed, cfg.Rates), cfg.CheckpointEvery, depth, opener, false)
		if err != nil {
			return nil, fmt.Errorf("chaos seed %d shards %d: %s run: %w", cfg.Seed, cfg.Shards, name, err)
		}
		rep.DiskStats = stats
		rep.MediaFaults = map[fault.MediaFault]int{}
		for _, m := range medias {
			for kind, n := range m.Fired() {
				rep.MediaFaults[kind] += n
			}
			rep.TotalMediaFaults += m.Total()
		}
		rep.DiskExact = fT == baseT && fF == baseF
		if !rep.DiskExact && stats.Fallbacks == 0 {
			rep.Identical = false
			if rep.Diff == "" {
				rep.Diff = name + " variant diverged without a fallback: " + firstDiff(baseT+baseF, fT+fF)
			}
		}
	}
	return rep, nil
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

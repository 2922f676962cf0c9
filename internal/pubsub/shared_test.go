package pubsub

import (
	"fmt"
	"testing"

	"abivm/internal/fault"
)

// sharedViewQueries returns n overlapping content queries over the
// common sales ⋈ stations join. The variants differ only in their
// SELECT list (projection / aggregate / grouping), so under the shared
// runtime they must all hash-cons onto one scan-scan-join spine;
// n beyond the variant count repeats queries, modeling the skewed view
// popularity of a real subscription population (popular queries
// re-register verbatim).
func sharedViewQueries(n int) []string {
	variants := []string{
		`SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT s.station, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT s.station, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey`,
	}
	out := make([]string, n)
	for i := range out {
		out[i] = variants[i%len(variants)]
	}
	return out
}

// subscribeSharedViews registers n overlapping views on b.
func subscribeSharedViews(t testing.TB, b *Broker, n int) {
	t.Helper()
	model, err := chaosModel()
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range sharedViewQueries(n) {
		err := b.Subscribe(Subscription{
			Name:      fmt.Sprintf("v%d", i),
			Query:     q,
			Condition: Every(5),
			Model:     model,
			QoS:       chaosQoS,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedRunMatchesClassic drives the full scripted chaos workload
// (fault-free) through a classic broker and a shared-dataflow broker
// and requires byte-identical transcripts and final contents — the
// runtime-equivalence half of the tentpole acceptance bar, without the
// fault machinery in the way.
func TestSharedRunMatchesClassic(t *testing.T) {
	spec := DefaultWorkloadSpec()
	script := chaosScript(3, 40, spec)
	cfg := ChaosConfig{Seed: 3, CheckpointEvery: 5}
	ct, cf, _, _, err := cfg.run(chaosVariant{depth: 2}, spec, script)
	if err != nil {
		t.Fatalf("classic run: %v", err)
	}
	st, sf, _, _, err := cfg.run(chaosVariant{depth: 2, shared: true}, spec, script)
	if err != nil {
		t.Fatalf("shared run: %v", err)
	}
	if ct != st {
		t.Errorf("shared transcript diverged:\n%s", firstDiff(ct, st))
	}
	if cf != sf {
		t.Errorf("shared final contents diverged:\n%s", firstDiff(cf, sf))
	}
}

// TestChaosSharedDeterminism is the shared-runtime acceptance sweep:
// for every seed, both shared variants (fault-free and faulted) must be
// byte-identical to the classic baseline. -short runs the CI smoke
// subset.
func TestChaosSharedDeterminism(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			rep, err := RunChaos(ChaosConfig{Seed: seed, Steps: 40, Shared: true})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if !rep.Identical {
				t.Errorf("seed %d: diverged:\n%s", seed, rep.Diff)
			}
			if rep.Notifications == 0 {
				t.Errorf("seed %d: no notifications — vacuous comparison", seed)
			}
		})
	}
}

// TestChaosSharedSharded runs the shared variants on the sharded
// runtime for a couple of seeds: each shard builds its own operator
// graph over its views, and the outcome must still match the classic
// sharded baseline.
func TestChaosSharedSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded shared sweep skipped in -short")
	}
	for _, seed := range []int64{2, 11} {
		rep, err := RunChaos(ChaosConfig{Seed: seed, Steps: 30, Shards: 2, Shared: true})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !rep.Identical {
			t.Errorf("seed %d: diverged:\n%s", seed, rep.Diff)
		}
	}
}

// TestSharedBrokerSharing pins the sub-linear operator count: six
// distinct views over the same join spine must build exactly one
// scan(sales), one scan(stations), and one join, with only the
// per-view group/projection tops private.
func TestSharedBrokerSharing(t *testing.T) {
	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b, 6)
	// The classic runtime reports a zero graph, so six views also proves
	// the broker really runs on the shared one.
	st := b.DataflowStats()
	if st.Views != 6 {
		t.Fatalf("Views = %d, want 6", st.Views)
	}
	// 6 distinct SELECT lists over one shared spine: 2 scans + 1 join +
	// 6 projection tops. A per-view build would cost 6·4 = 24 operators.
	if want := 9; st.Nodes != want {
		t.Errorf("Nodes = %d, want %d (sharing regressed)", st.Nodes, want)
	}
	if st.InternHits == 0 {
		t.Error("InternHits = 0 — hash-consing never fired")
	}
	if st.MaxFanout < 6 {
		t.Errorf("MaxFanout = %d, want >= 6 (join fans out to every view top)", st.MaxFanout)
	}
}

// TestSharedUnsubscribeReleases pins the ref-counted lifecycle at the
// broker surface: unsubscribing tears down exactly the nodes no other
// view still references, and the last unsubscribe empties the graph.
func TestSharedUnsubscribeReleases(t *testing.T) {
	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	if err := b.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b, 3)
	if st := b.DataflowStats(); st.Nodes != 6 || st.Views != 3 {
		t.Fatalf("3 views: Nodes=%d Views=%d, want 6/3", st.Nodes, st.Views)
	}
	// v1 owns only its projection top; the spine stays for v0 and v2.
	if err := b.Unsubscribe("v1"); err != nil {
		t.Fatal(err)
	}
	if st := b.DataflowStats(); st.Nodes != 5 || st.Views != 2 {
		t.Fatalf("after unsubscribe v1: Nodes=%d Views=%d, want 5/2", st.Nodes, st.Views)
	}
	if err := b.Unsubscribe("v0"); err != nil {
		t.Fatal(err)
	}
	if err := b.Unsubscribe("v2"); err != nil {
		t.Fatal(err)
	}
	if st := b.DataflowStats(); st.Nodes != 0 || st.Views != 0 {
		t.Fatalf("after all unsubscribes: Nodes=%d Views=%d, want 0/0 (operator leak)", st.Nodes, st.Views)
	}
	if err := b.Unsubscribe("v0"); err == nil {
		t.Error("double unsubscribe succeeded")
	}
}

// TestSharedModeGuards pins the mode-switch preconditions.
func TestSharedModeGuards(t *testing.T) {
	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBroker(db)
	subscribeSharedViews(t, b, 1)
	if err := b.SetSharedDataflow(true); err == nil {
		t.Error("enabling shared dataflow after a classic subscription succeeded")
	}

	db2, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	b2 := NewBroker(db2)
	if err := b2.SetSharedDataflow(true); err != nil {
		t.Fatal(err)
	}
	subscribeSharedViews(t, b2, 1)
	if err := b2.SetSharedDataflow(false); err == nil {
		t.Error("disabling shared dataflow with live shared subscriptions succeeded")
	}
	if err := b2.Unsubscribe("v0"); err != nil {
		t.Fatal(err)
	}
	if err := b2.SetSharedDataflow(false); err != nil {
		t.Errorf("disabling with no live shared views: %v", err)
	}
}

// runSharedBench drives steps scripted modification steps through a
// broker with n overlapping views on either runtime.
func runSharedBench(b *testing.B, n int, shared bool) {
	b.Helper()
	script := chaosScript(7, 64, DefaultWorkloadSpec())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := DemoDB(DefaultWorkloadSpec())
		if err != nil {
			b.Fatal(err)
		}
		br := NewBroker(db)
		if shared {
			if err := br.SetSharedDataflow(true); err != nil {
				b.Fatal(err)
			}
		}
		subscribeSharedViews(b, br, n)
		b.StartTimer()
		for t, evs := range script {
			for _, ev := range evs {
				if err := br.Publish(ev.table, ev.mod); err != nil {
					b.Fatalf("step %d: %v", t, err)
				}
			}
			if _, err := br.EndStep(); err != nil {
				b.Fatalf("step %d: %v", t, err)
			}
		}
	}
}

// BenchmarkSharedDataflow compares per-view maintenance against the
// shared operator graph as the number of overlapping views over the
// common sales ⋈ stations join grows. The classic runtime's cost is
// linear in the view count (every view re-runs the join probe per
// delta); the shared runtime runs the spine once per delta and pays
// per-view only for the private aggregation tops.
func BenchmarkSharedDataflow(b *testing.B) {
	for _, n := range []int{1, 4, 12} {
		for _, mode := range []struct {
			name   string
			shared bool
		}{{"classic", false}, {"shared", true}} {
			b.Run(fmt.Sprintf("runtime=%s/views=%d", mode.name, n), func(b *testing.B) {
				runSharedBench(b, n, mode.shared)
			})
		}
	}
}

// TestSharedFaultSitesExercised is a non-vacuity check on the shared
// chaos variant: across a few seeds the faulted shared run must
// actually hit drain, WAL, checkpoint, and crash sites (otherwise the
// byte-identity sweep proves nothing about shared-mode recovery).
func TestSharedFaultSitesExercised(t *testing.T) {
	sites := map[fault.Site]int{}
	for seed := int64(1); seed <= 6; seed++ {
		spec := DefaultWorkloadSpec()
		script := chaosScript(seed, 40, spec)
		inj := fault.NewSeeded(seed, fault.DefaultRates())
		cfg := ChaosConfig{Seed: seed, CheckpointEvery: 5}
		v := chaosVariant{depth: 2, shared: true, injectors: func(int) fault.Injector { return inj }}
		if _, _, _, _, err := cfg.run(v, spec, script); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for site, n := range inj.Fired() {
			sites[site] += n
		}
	}
	for _, site := range []fault.Site{
		fault.SiteDrainPlan, fault.SiteDrainApply, fault.SiteWALCommit,
		fault.SiteCheckpoint, fault.SiteCrash,
	} {
		if sites[site] == 0 {
			t.Errorf("site %s never fired in shared-mode chaos runs", site)
		}
	}
}

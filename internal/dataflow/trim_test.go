package dataflow

import (
	"testing"

	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// trimStations is the stations cardinality of salesJoin: the number of
// join keys on the sales side.
const trimStations = 64

// salesJoin is a graph holding sales(sales rows) ⋈ stations(64 rows)
// on the station key, with no sink, plus a full-coverage watermark.
type salesJoin struct {
	g    *Graph
	wm   map[string]uint64
	top  node
	join *joinNode
}

func newSalesJoin(tb testing.TB, sales int) *salesJoin {
	tb.Helper()
	db := storage.NewDB()
	st, err := storage.NewSchema("stations", []storage.Column{
		{Name: "stationkey", Type: storage.TInt},
		{Name: "region", Type: storage.TString},
	}, "stationkey")
	if err != nil {
		tb.Fatal(err)
	}
	stations, err := db.CreateTable(st)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < trimStations; i++ {
		if err := stations.Insert(storage.Row{storage.I(i), storage.S([]string{"EAST", "WEST"}[i%2])}); err != nil {
			tb.Fatal(err)
		}
	}
	sa, err := storage.NewSchema("sales", []storage.Column{
		{Name: "salekey", Type: storage.TInt},
		{Name: "station", Type: storage.TInt},
		{Name: "amount", Type: storage.TFloat},
	}, "salekey")
	if err != nil {
		tb.Fatal(err)
	}
	tbl, err := db.CreateTable(sa)
	if err != nil {
		tb.Fatal(err)
	}
	for i := int64(0); i < int64(sales); i++ {
		if err := tbl.Insert(storage.Row{storage.I(i), storage.I(i % trimStations), storage.F(1)}); err != nil {
			tb.Fatal(err)
		}
	}
	sj := &salesJoin{g: NewGraph(db), wm: map[string]uint64{}}
	joins := realizeQuery(tb, sj.g, "SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey")
	if len(joins) != 1 {
		tb.Fatalf("%d joins, want 1", len(joins))
	}
	sj.join = joins[0]
	for _, n := range sj.g.order {
		if _, ok := n.(*projectNode); ok {
			sj.top = n
		}
	}
	return sj
}

// update rewrites the amounts of sales rows first, first+1, …,
// first+k-1 (mod rows), keeping their station and so their join key.
// The amount is round, so rounds that differ change every row.
func (sj *salesJoin) update(tb testing.TB, first, k, rows, round int) {
	for i := 0; i < k; i++ {
		id := int64((first + i) % rows)
		row := storage.Row{storage.I(id), storage.I(id % trimStations), storage.F(float64(round))}
		if err := sj.g.Ingest("sales", ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(id)}, Row: row}); err != nil {
			tb.Fatal(err)
		}
	}
}

// trimAt trims with every table covered through the given number of
// most recent sales mods left uncovered.
func (sj *salesJoin) trimAt(uncovered uint64) {
	sj.wm["sales"] = sj.g.LogLen("sales") - uncovered
	sj.wm["stations"] = sj.g.LogLen("stations")
	sj.g.Trim(sj.wm)
}

// TestTrimAllocsIndependentOfStateSize pins the incremental trim: k
// mods plus a full-coverage Trim allocate the same on a 1000-row side
// as on an 8000-row side. A whole-side consolidation allocates per
// retained entry and fails this.
func TestTrimAllocsIndependentOfStateSize(t *testing.T) {
	const k = 16
	allocs := func(rows int) float64 {
		sj := newSalesJoin(t, rows)
		round := 0
		return testing.AllocsPerRun(50, func() {
			round++
			sj.update(t, 0, k, rows, round)
			sj.trimAt(0)
		})
	}
	small, large := allocs(1000), allocs(8000)
	if small != large {
		t.Fatalf("%d mods + Trim: %.0f allocs on a 1000-row side, %.0f on an 8000-row side", k, small, large)
	}
}

// TestTrimReleasesBurstCapacity checks that a burst does not pin its
// high-water capacity in the retained log or in a join bucket's
// attributed slice. A full-coverage Trim drops the emptied slices at
// once. A partial Trim keeps the burst's uncovered tail; the next Trim
// after a quiet interval cuts each slice back to at most four times
// what that interval needed.
func TestTrimReleasesBurstCapacity(t *testing.T) {
	const rows, burst, quiet = 1000, 4000, 16
	sj := newSalesJoin(t, rows)
	sj.top.attachSink(discard{})
	// demands records each slice's pre-trim length, the bound's base.
	demands := func() (int, map[string]int) {
		per := make(map[string]int)
		for k, b := range sj.join.lstate.buckets {
			per[k] = len(b.delta)
		}
		return len(sj.top.retained()), per
	}
	check := func(ctx string, logDemand int, bucketDemand map[string]int) {
		t.Helper()
		if log := sj.top.retained(); cap(log) > max(releaseMin, 4*logDemand) {
			t.Fatalf("%s: retained log cap %d after a trim with demand %d", ctx, cap(log), logDemand)
		}
		for k, b := range sj.join.lstate.buckets {
			if cap(b.delta) > max(releaseMin, 4*bucketDemand[k]) {
				t.Fatalf("%s: bucket %q delta cap %d after a trim with demand %d", ctx, k, cap(b.delta), bucketDemand[k])
			}
		}
	}

	sj.update(t, 0, burst, rows, 1)
	sj.trimAt(0)
	check("burst, full coverage", 0, nil)

	sj.update(t, 0, burst, rows, 2)
	sj.trimAt(trimStations)
	if n := len(sj.top.retained()); n == 0 {
		t.Fatal("partial trim left no retained deltas; the case below would be vacuous")
	}
	sj.update(t, 0, quiet, rows, 3)
	logDemand, bucketDemand := demands()
	sj.trimAt(quiet)
	check("burst, partial coverage, quiet interval", logDemand, bucketDemand)
}

type discard struct{}

func (discard) onDelta(Delta) {}

// BenchmarkGraphTrim measures the checkpoint-time GC on a fixed
// 4000-row join state: one op is 64 sales updates plus a full-coverage
// Trim. Updates keep the state size fixed and a warm-up op hashes
// every bucket before the timer starts, so per-op cost does not depend
// on b.N.
func BenchmarkGraphTrim(b *testing.B) {
	const rows, mods = 4000, 64
	sj := newSalesJoin(b, rows)
	sj.update(b, 0, rows, rows, 0)
	sj.trimAt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sj.update(b, i*mods, mods, rows, i+1)
		sj.trimAt(0)
	}
}

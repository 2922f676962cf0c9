package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"abivm/internal/core"
	"abivm/internal/costfn"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/ivm"
	"abivm/internal/obs"
	"abivm/internal/pubsub"
	"abivm/internal/storage"
	"abivm/internal/tpcr"
	"abivm/internal/viewc"
)

// broker is the public surface the benchmark drives; both the serial
// *pubsub.Broker and the *pubsub.ShardedBroker satisfy it.
type broker interface {
	Subscribe(pubsub.Subscription) error
	Publish(table string, mod ivm.Mod) error
	EndStep() ([]pubsub.Notification, error)
	TotalCost(name string) (float64, error)
	SetObs(*obs.Registry, *obs.Tracer)
	DataflowStats() dataflow.GraphStats
	DurabilityStats() durable.Stats
	SetCheckpointEvery(n int)
	SetStoreOpener(durable.Opener)
	SetSharedDataflow(on bool) error
}

// change is one generated modification of a base table.
type change struct {
	table string
	mod   ivm.Mod
}

// generator produces a workload's modification stream one step at a
// time. Every generator keeps the live base-table cardinalities
// stationary, so per-step cost does not depend on run length.
type generator interface {
	step() []change
}

// view is one subscribed view as the benchmark knows it: the broker
// subscription name, its SQL (for the from-scratch check) and its QoS
// bound C.
type view struct {
	name  string
	query string
	qos   float64
}

// workload is one traffic shape. The engine fields (shared, shards,
// disk) are set in the workloads table below and nowhere else.
type workload struct {
	// shared selects the shared delta-dataflow graph; false selects the
	// classic per-view maintainers.
	shared bool
	// shards > 0 runs a ShardedBroker with that many shards; 0 runs the
	// serial Broker.
	shards int
	// disk gives every subscription a durable.Store, on in-memory files
	// (see memDisk).
	disk bool
	// cpEvery is the checkpoint cadence in steps.
	cpEvery int
	// cycle is the length in steps after which checkpoints, station
	// flips and notifications have all come round; heap_live_mb is
	// averaged over one.
	cycle int
	// load builds the base tables.
	load func() (*storage.DB, error)
	// subs returns the subscriptions to register. cond wraps each view's
	// own cadence so the benchmark can force every view to fire on the
	// final step. It reports the time spent compiling SQL, if any.
	subs func(db *storage.DB, root string, cond func(every int) pubsub.Condition) ([]pubsub.Subscription, time.Duration, error)
	// gen returns the seeded modification stream for a loaded database.
	gen func(seed int64, db *storage.DB) generator
}

// workloads is the one place each workload's engine is chosen.
var workloads = map[string]*workload{
	"overlap": {
		shared: true, cpEvery: pubsub.DefaultCheckpointEvery, cycle: 4 * overlapStations,
		load: func() (*storage.DB, error) { return loadSales(overlapSpec(), overlapSkew) },
		subs: overlapSubs,
		gen:  newOverlapGen,
	},
	"durable-eager": {
		disk: true, cpEvery: 4, cycle: 4 * eagerStations,
		load: func() (*storage.DB, error) { return loadSales(eagerSpec(), 0) },
		subs: eagerSubs,
		gen:  newEagerGen,
	},
	"tpcr-lazy": {
		shards: 2, cpEvery: 64, cycle: 64,
		load: loadTPCR,
		subs: tpcrSubs,
		gen:  newTPCRGen,
	},
}

// instance is one set-up workload: base tables, broker, and the views
// subscribed on it.
type instance struct {
	db    *storage.DB
	b     broker
	views []view
	close func()
	// disk holds the stores' files; nil unless the workload is durable.
	disk *memDisk
	// load, compile and subscribe split the set-up time by layer.
	load, compile, subscribe time.Duration
}

// setup builds the base tables, opens the broker and subscribes every
// view. wrap, when non-nil, decorates each subscription (the traced
// run's policy timer).
func (w *workload) setup(root string, force *atomic.Int64, wrap func(*pubsub.Subscription)) (*instance, error) {
	t0 := time.Now()
	db, err := w.load()
	if err != nil {
		return nil, fmt.Errorf("loading base tables: %w", err)
	}
	t1 := time.Now()
	cond := func(every int) pubsub.Condition {
		return func(step int) bool {
			return int64(step) == force.Load() || (step > 0 && step%every == 0)
		}
	}
	subs, compile, err := w.subs(db, root, cond)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	var disk *memDisk
	if w.disk {
		disk = newMemDisk()
	}
	b, closeFn, err := w.open(db, disk)
	if err != nil {
		return nil, err
	}
	inst := &instance{db: db, b: b, close: closeFn, disk: disk, load: t1.Sub(t0), compile: compile}
	for i := range subs {
		if wrap != nil {
			wrap(&subs[i])
		}
		if err := b.Subscribe(subs[i]); err != nil {
			closeFn()
			return nil, fmt.Errorf("subscribing %s: %w", subs[i].Name, err)
		}
		inst.views = append(inst.views, view{name: subs[i].Name, query: subs[i].Query, qos: subs[i].QoS})
	}
	// Compile time is measured inside subs; the rest of t1..now is the
	// broker side: replica build or graph subscribe plus the initial
	// checkpoint.
	inst.subscribe = time.Since(t2) + (t2.Sub(t1) - compile)
	return inst, nil
}

// open creates the workload's broker over db and the function that
// stops it.
func (w *workload) open(db *storage.DB, disk *memDisk) (broker, func(), error) {
	var b broker
	closeFn := func() {}
	if w.shards > 0 {
		sb := pubsub.NewShardedBroker(db, pubsub.ShardOptions{Shards: w.shards})
		b, closeFn = sb, sb.Close
	} else {
		b = pubsub.NewBroker(db)
	}
	b.SetCheckpointEvery(w.cpEvery)
	if disk != nil {
		b.SetStoreOpener(disk.open)
	}
	if w.shared {
		if err := b.SetSharedDataflow(true); err != nil {
			closeFn()
			return nil, nil, err
		}
	}
	return b, closeFn, nil
}

// linearModel builds a cost model of linear per-table functions, given
// as (slope, intercept) pairs in FROM order.
func linearModel(coef ...[2]float64) (*core.CostModel, error) {
	fs := make([]core.CostFunc, len(coef))
	for i, c := range coef {
		f, err := costfn.NewLinear(c[0], c[1])
		if err != nil {
			return nil, err
		}
		fs[i] = f
	}
	return core.NewCostModel(fs...), nil
}

// --- overlap: write-heavy on the shared operator graph ---------------

const (
	overlapStations = 64
	overlapSales    = 4000
	overlapRegions  = 8
)

func overlapSpec() pubsub.WorkloadSpec {
	regions := make([]string, overlapRegions)
	for i := range regions {
		regions[i] = fmt.Sprintf("R%02d", i)
	}
	return pubsub.WorkloadSpec{Stations: overlapStations, SalesRows: overlapSales, Regions: regions}
}

// overlapQueries are twelve overlapping aggregate views over sales ⋈
// stations: six grouped and ungrouped variants of the whole join, then
// six region-filtered SUM/COUNT views.
func overlapQueries() []string {
	q := []string{
		`SELECT st.region, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT st.region, SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY st.region`,
		`SELECT s.station, SUM(s.amount) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT s.station, COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey GROUP BY s.station`,
		`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey`,
	}
	for i := 0; i < 6; i++ {
		q = append(q, fmt.Sprintf(`SELECT SUM(s.amount), COUNT(*) FROM sales AS s, stations AS st WHERE s.station = st.stationkey AND st.region = 'R%02d'`, i))
	}
	return q
}

// overlapSubs subscribes the twelve views with notification cadences
// staggered from Every(5) to Every(13).
func overlapSubs(_ *storage.DB, _ string, cond func(int) pubsub.Condition) ([]pubsub.Subscription, time.Duration, error) {
	var subs []pubsub.Subscription
	for i, q := range overlapQueries() {
		model, err := linearModel([2]float64{0.5, 0.1}, [2]float64{0.05, 4})
		if err != nil {
			return nil, 0, err
		}
		subs = append(subs, pubsub.Subscription{
			Name: fmt.Sprintf("v%02d", i), Query: q,
			Condition: cond(5 + i%9), Model: model, QoS: 40,
		})
	}
	return subs, 0, nil
}

// salesGen is the stations/sales stream shared by overlap and
// durable-eager: per step, ins sales inserts and as many deletes of
// random live rows, plus a station region flip every flipEvery steps.
// Flips visit the stations round-robin (to a random region), so every
// window of a few hundred steps flips hot and cold stations alike and
// the cost of a run does not hinge on how often the seed picks a hot
// station. The base sales rows are drawn from the same distribution as
// the inserts, so row count, per-station skew and amount mix are all
// stationary from the first step. Amounts are integer-valued so SUMs
// are exact.
type salesGen struct {
	rng       *rand.Rand
	zipf      *rand.Zipf // nil draws stations uniformly
	stations  int
	regions   []string
	ins       int
	flipEvery int
	live      []int64
	next      int64
	n         int
	flips     int
}

// salesBaseSeed fixes the base rows, so only the stream varies with the
// run's seed.
const salesBaseSeed = 0

func newSalesGen(seed int64, spec pubsub.WorkloadSpec, ins, flipEvery int, skew float64) *salesGen {
	g := &salesGen{
		rng: rand.New(rand.NewSource(seed)), stations: spec.Stations, regions: spec.Regions,
		ins: ins, flipEvery: flipEvery,
	}
	if skew > 1 {
		g.zipf = rand.NewZipf(g.rng, skew, 1, uint64(spec.Stations-1))
	}
	return g
}

// loadSales builds the demo stations table and fills sales with
// spec.SalesRows rows drawn from the stream's own distribution (keys
// 0..SalesRows-1).
func loadSales(spec pubsub.WorkloadSpec, skew float64) (*storage.DB, error) {
	stationsOnly := spec
	stationsOnly.SalesRows = 0
	db, err := pubsub.DemoDB(stationsOnly)
	if err != nil {
		return nil, err
	}
	sales, err := db.Table("sales")
	if err != nil {
		return nil, err
	}
	g := newSalesGen(salesBaseSeed, spec, 0, 1, skew)
	for i := 0; i < spec.SalesRows; i++ {
		if err := sales.Insert(g.row()); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// row draws a new sales row under the next key and records it as live.
func (g *salesGen) row() storage.Row {
	station := int64(g.rng.Intn(g.stations))
	if g.zipf != nil {
		station = int64(g.zipf.Uint64())
	}
	r := storage.Row{storage.I(g.next), storage.I(station), storage.F(float64(1 + g.rng.Intn(20)))}
	g.live = append(g.live, g.next)
	g.next++
	return r
}

// streamFrom continues after the base rows loadSales generated.
func (g *salesGen) streamFrom(rows int) *salesGen {
	for i := int64(0); i < int64(rows); i++ {
		g.live = append(g.live, i)
	}
	g.next = int64(rows)
	return g
}

func (g *salesGen) step() []change {
	out := make([]change, 0, 2*g.ins+1)
	for i := 0; i < g.ins; i++ {
		out = append(out, change{"sales", ivm.Insert("", g.row())})
	}
	for i := 0; i < g.ins; i++ {
		j := g.rng.Intn(len(g.live))
		key := g.live[j]
		g.live[j] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		out = append(out, change{"sales", ivm.Delete("", storage.I(key))})
	}
	if g.n%g.flipEvery == 0 {
		k := storage.I(int64(g.flips % g.stations))
		g.flips++
		region := storage.S(g.regions[g.rng.Intn(len(g.regions))])
		out = append(out, change{"stations", ivm.Update("", []storage.Value{k}, storage.Row{k, region})})
	}
	g.n++
	return out
}

// overlapSkew is the Zipf exponent of overlap's station keys.
const overlapSkew = 1.2

func newOverlapGen(seed int64, _ *storage.DB) generator {
	return newSalesGen(seed, overlapSpec(), 4, 4, overlapSkew).streamFrom(overlapSales)
}

// --- durable-eager: read-heavy, classic engine on disk ---------------

const eagerStations = 64

func eagerSpec() pubsub.WorkloadSpec {
	return pubsub.WorkloadSpec{Stations: eagerStations, SalesRows: 4000, Regions: []string{"EAST", "WEST"}}
}

// eagerSubs compiles examples/views.sql; every view refreshes and
// materializes its result on every step.
func eagerSubs(db *storage.DB, root string, cond func(int) pubsub.Condition) ([]pubsub.Subscription, time.Duration, error) {
	src, err := os.ReadFile(filepath.Join(root, "examples", "views.sql"))
	if err != nil {
		return nil, 0, fmt.Errorf("reading views catalog: %w", err)
	}
	start := time.Now()
	cvs, err := viewc.CompileCatalog(db, string(src), viewc.Options{Condition: cond(1)})
	if err != nil {
		return nil, 0, fmt.Errorf("compiling views catalog: %w", err)
	}
	compile := time.Since(start)
	subs := make([]pubsub.Subscription, len(cvs))
	for i, cv := range cvs {
		subs[i] = cv.Subscription()
	}
	return subs, compile, nil
}

func newEagerGen(seed int64, _ *storage.DB) generator {
	return newSalesGen(seed, eagerSpec(), 2, 4, 0).streamFrom(eagerSpec().SalesRows)
}

// --- tpcr-lazy: the paper's setup on the sharded broker --------------

// tpcrConfig is TPC-R at SF 0.01: 100 suppliers, 8000 partsupp rows.
// supplier.suppkey is indexed and partsupp.suppkey is not, so a
// Supplier delta scans PartSupp — the paper's asymmetry.
func tpcrConfig() tpcr.Config {
	return tpcr.Config{ScaleFactor: 0.01, Seed: 1, SupplierSuppkeyIndex: true}
}

func loadTPCR() (*storage.DB, error) {
	db := storage.NewDB()
	if err := tpcr.Generate(db, tpcrConfig()); err != nil {
		return nil, err
	}
	return db, nil
}

var tpcrRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// tpcrSubs subscribes the paper's MIN view once per region, with a
// Fig-4-shaped linear model (PS 0.03k+2.5, S 0.09k+20; N and R are never
// modified) and C = f(80, 80), notified lazily every 20 to 32 steps.
func tpcrSubs(_ *storage.DB, _ string, cond func(int) pubsub.Condition) ([]pubsub.Subscription, time.Duration, error) {
	var subs []pubsub.Subscription
	for i, region := range tpcrRegions {
		model, err := linearModel([2]float64{0.03, 2.5}, [2]float64{0.09, 20}, [2]float64{0.01, 1}, [2]float64{0.01, 1})
		if err != nil {
			return nil, 0, err
		}
		q := strings.Replace(tpcr.PaperView, "'MIDDLE EAST'", "'"+region+"'", 1)
		subs = append(subs, pubsub.Subscription{
			Name: strings.ToLower(strings.ReplaceAll(region, " ", "_")), Query: q,
			Condition: cond(20 + 3*i), Model: model, QoS: model.Total(core.Vector{80, 80, 0, 0}),
		})
	}
	return subs, 0, nil
}

// tpcrGen publishes two of the paper's updates per step, each a fair
// coin between a PartSupp supplycost update and a Supplier nationkey
// update. Updates keep every cardinality fixed.
type tpcrGen struct {
	rng *rand.Rand
	ug  *tpcr.UpdateGen
}

func newTPCRGen(seed int64, db *storage.DB) generator {
	return &tpcrGen{rng: rand.New(rand.NewSource(seed)), ug: tpcr.NewUpdateGen(db, tpcrConfig(), seed)}
}

func (g *tpcrGen) step() []change {
	out := make([]change, 2)
	for i := range out {
		if g.rng.Intn(2) == 0 {
			out[i] = change{"partsupp", g.ug.PartSuppUpdate()}
		} else {
			out[i] = change{"supplier", g.ug.SupplierUpdate()}
		}
	}
	return out
}

// written is the bytes the instance's durable stores have written so
// far; 0 for an in-memory workload.
func (inst *instance) written() int64 {
	if inst.disk == nil {
		return 0
	}
	return inst.disk.written.Load()
}

package dataflow

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// size counts the retained entries of a join side, base and delta.
func (s *sideState) size() int {
	n := 0
	for _, b := range s.buckets {
		n += len(b.base) + len(b.delta)
	}
	return n
}

// refSide is a join side in the flat layout the whole-side
// consolidation worked on: every retained entry in one slice, plus a
// hash index from equi-join key to entry positions.
type refSide struct {
	entries []stateEntry
	index   map[string][]int
}

func refKey(fns []exec.Scalar, r storage.Row) string {
	vals := make([]storage.Value, len(fns))
	for i, fn := range fns {
		vals[i] = fn(r)
	}
	return storage.EncodeKey(vals...)
}

func (s *refSide) add(e stateEntry, key string) {
	s.index[key] = append(s.index[key], len(s.entries))
	s.entries = append(s.entries, e)
}

// consolidate is the reference algorithm: it re-encodes, nets, sorts
// and re-indexes every entry of the side on each call. The bucketed
// sideState must keep exactly the entries this keeps.
func (s *refSide) consolidate(tabs []string, wm map[string]uint64, keyFns []exec.Scalar) {
	covered := 0
	for _, e := range s.entries {
		if e.coord.coveredBy(tabs, wm) {
			covered++
		}
	}
	if covered == 0 {
		return
	}
	type baseEntry struct {
		row storage.Row
		w   int64
	}
	net := make(map[string]*baseEntry, covered)
	order := make([]string, 0, covered)
	var live []stateEntry
	for _, e := range s.entries {
		if !e.coord.coveredBy(tabs, wm) {
			live = append(live, e)
			continue
		}
		rk := storage.EncodeKey(e.row...)
		b, ok := net[rk]
		if !ok {
			b = &baseEntry{row: e.row}
			net[rk] = b
			order = append(order, rk)
		}
		b.w += e.w
	}
	sort.Strings(order)
	rebuilt := refSide{index: make(map[string][]int)}
	zero := make(Coord, len(tabs))
	for _, rk := range order {
		b := net[rk]
		if b.w == 0 {
			continue
		}
		rebuilt.add(stateEntry{row: b.row, coord: zero, w: b.w}, refKey(keyFns, b.row))
	}
	for _, e := range live {
		rebuilt.add(e, refKey(keyFns, e.row))
	}
	*s = rebuilt
}

// refRecorder feeds a reference side the deltas a join input emits.
type refRecorder struct {
	side *refSide
	keys []exec.Scalar
}

func (r *refRecorder) onDelta(d Delta) {
	r.side.add(stateEntry{row: d.Row, coord: d.Coord, w: d.W}, refKey(r.keys, d.Row))
}

// refJoin shadows one join node with two reference sides that receive
// the same deltas, in the same order, as the node's own sides.
type refJoin struct {
	j           *joinNode
	left, right *refSide
}

func shadowJoin(j *joinNode) *refJoin {
	r := &refJoin{j: j, left: shadowSide(&j.lstate), right: shadowSide(&j.rstate)}
	j.left.addOut(&refRecorder{side: r.left, keys: j.lkeys})
	j.right.addOut(&refRecorder{side: r.right, keys: j.rkeys})
	return r
}

// shadowSide copies a freshly seeded side into the flat layout.
func shadowSide(s *sideState) *refSide {
	r := &refSide{index: make(map[string][]int)}
	keys := make([]string, 0, len(s.buckets))
	for k := range s.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b := s.buckets[k]
		for _, e := range b.base {
			r.add(stateEntry{row: e.row, coord: s.zero, w: e.w}, k)
		}
		for _, e := range b.delta {
			r.add(e, k)
		}
	}
	return r
}

func (r *refJoin) trim(wm map[string]uint64) {
	r.left.consolidate(r.j.left.tables(), wm, r.j.lkeys)
	r.right.consolidate(r.j.right.tables(), wm, r.j.rkeys)
}

func isZero(c Coord) bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// renderSide renders one key's entries canonically: coordinate-zero
// entries as a (row, weight) list sorted by row, then attributed
// entries in arrival order.
func renderSide(base []baseEntry, delta []stateEntry) string {
	rows := make([]string, len(base))
	for i, e := range base {
		rows[i] = fmt.Sprintf("%q:%d", storage.EncodeKey(e.row...), e.w)
	}
	sort.Strings(rows)
	var sb strings.Builder
	sb.WriteString(strings.Join(rows, ","))
	sb.WriteString(" | ")
	for _, e := range delta {
		fmt.Fprintf(&sb, "%q@%v:%d,", storage.EncodeKey(e.row...), e.coord, e.w)
	}
	return sb.String()
}

func (s *sideState) digest() map[string]string {
	out := make(map[string]string, len(s.buckets))
	for k, b := range s.buckets {
		out[k] = renderSide(b.base, b.delta)
	}
	return out
}

func (s *refSide) digest() map[string]string {
	out := make(map[string]string, len(s.index))
	for k, idxs := range s.index {
		var base []baseEntry
		var delta []stateEntry
		for _, i := range idxs {
			e := s.entries[i]
			if isZero(e.coord) {
				base = append(base, baseEntry{row: e.row, w: e.w})
			} else {
				delta = append(delta, e)
			}
		}
		out[k] = renderSide(base, delta)
	}
	return out
}

func sameDigest(t *testing.T, ctx string, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			t.Fatalf("%s: key %q diverged from the reference\nbucketed:  %s\nreference: %s", ctx, k, got[k], want[k])
		}
	}
}

// realizeQuery compiles a view's operator tree into g without a sink
// and returns the graph's join nodes in signature order.
func realizeQuery(tb testing.TB, g *Graph, query string) []*joinNode {
	tb.Helper()
	p, err := ivm.PlanView(query)
	if err != nil {
		tb.Fatal(err)
	}
	spec, err := buildSpecs(p, g.schemaOf)
	if err != nil {
		tb.Fatal(err)
	}
	var used []string
	if _, err := g.realize(spec, &used); err != nil {
		tb.Fatal(err)
	}
	var joins []*joinNode
	for _, n := range g.order {
		if j, ok := n.(*joinNode); ok {
			joins = append(joins, j)
		}
	}
	return joins
}

// chainDB builds r(id, k) ⋈ s(id, k, m) ⋈ t(id, m) over small key
// domains, so buckets hold several rows and every mod finds partners.
func chainDB(t *testing.T) *storage.DB {
	t.Helper()
	db := storage.NewDB()
	defs := []struct {
		name string
		cols []string
	}{{"r", []string{"id", "k"}}, {"s", []string{"id", "k", "m"}}, {"t", []string{"id", "m"}}}
	for _, d := range defs {
		cols := make([]storage.Column, len(d.cols))
		for i, c := range d.cols {
			cols[i] = storage.Column{Name: c, Type: storage.TInt}
		}
		sch, err := storage.NewSchema(d.name, cols, "id")
		if err != nil {
			t.Fatal(err)
		}
		tbl, err := db.CreateTable(sch)
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 6; id++ {
			row := storage.Row{storage.I(id)}
			for range d.cols[1:] {
				row = append(row, storage.I(id%3))
			}
			if err := tbl.Insert(row); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

// modGen draws random valid inserts, deletes and updates over a set of
// tables whose first column is an integer primary key. Non-key values
// come from a small domain, so updates move rows between join keys.
type modGen struct {
	rng    *rand.Rand
	tables []*storage.Table
	ids    [][]int64
	next   []int64
	active int // mods go to the first active tables only
}

func newModGen(t *testing.T, db *storage.DB, seed int64, names ...string) *modGen {
	t.Helper()
	g := &modGen{rng: rand.New(rand.NewSource(seed))}
	for _, name := range names {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var ids []int64
		tbl.Scan(func(r storage.Row) bool {
			ids = append(ids, r[0].Int())
			return true
		})
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		g.tables = append(g.tables, tbl)
		g.ids = append(g.ids, ids)
		g.next = append(g.next, 1000)
	}
	g.active = len(g.tables)
	return g
}

func (g *modGen) row(ti int, id int64) storage.Row {
	cols := g.tables[ti].Schema().Columns
	row := storage.Row{storage.I(id)}
	for _, c := range cols[1:] {
		switch c.Type {
		case storage.TFloat:
			row = append(row, storage.F(float64(1+g.rng.Intn(4))))
		case storage.TString:
			row = append(row, storage.S([]string{"EAST", "WEST"}[g.rng.Intn(2)]))
		default:
			row = append(row, storage.I(int64(g.rng.Intn(3))))
		}
	}
	return row
}

func (g *modGen) mod() (string, ivm.Mod) {
	ti := g.rng.Intn(g.active)
	name := g.tables[ti].Schema().Name
	ids := g.ids[ti]
	switch op := g.rng.Intn(10); {
	case op < 4 || len(ids) == 0:
		id := g.next[ti]
		g.next[ti]++
		g.ids[ti] = append(ids, id)
		return name, ivm.Mod{Kind: ivm.ModInsert, Row: g.row(ti, id)}
	case op < 7:
		i := g.rng.Intn(len(ids))
		id := ids[i]
		g.ids[ti] = append(ids[:i], ids[i+1:]...)
		return name, ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(id)}}
	default:
		id := ids[g.rng.Intn(len(ids))]
		return name, ivm.Mod{Kind: ivm.ModUpdate, Key: []storage.Value{storage.I(id)}, Row: g.row(ti, id)}
	}
}

// shadowCase is one graph whose join sides run next to the reference.
type shadowCase struct {
	t    *testing.T
	g    *Graph
	refs []*refJoin
}

func newShadowCase(t *testing.T, db *storage.DB, query string) *shadowCase {
	sc := &shadowCase{t: t, g: NewGraph(db)}
	sc.realize(query)
	return sc
}

// realize adds a view's operators to the graph and shadows every join
// it created. A join created over an existing join is seeded from that
// join's current output, which must arrive netted.
func (sc *shadowCase) realize(query string) {
	sc.t.Helper()
	shadowed := make(map[*joinNode]bool, len(sc.refs))
	for _, r := range sc.refs {
		shadowed[r.j] = true
	}
	for _, j := range realizeQuery(sc.t, sc.g, query) {
		if !shadowed[j] {
			sc.refs = append(sc.refs, shadowJoin(j))
		}
	}
	sc.checkNetted("after realizing " + query)
}

func (sc *shadowCase) ingest(table string, mod ivm.Mod) {
	sc.t.Helper()
	if err := sc.g.Ingest(table, mod); err != nil {
		sc.t.Fatal(err)
	}
}

// checkNetted requires every bucket's base to hold each row at most
// once, as netting leaves it.
func (sc *shadowCase) checkNetted(ctx string) {
	sc.t.Helper()
	for _, r := range sc.refs {
		for _, s := range []*sideState{&r.j.lstate, &r.j.rstate} {
			for k, b := range s.buckets {
				seen := make(map[string]bool, len(b.base))
				for _, e := range b.base {
					rk := storage.EncodeKey(e.row...)
					if seen[rk] {
						sc.t.Fatalf("%s: %s key %q holds base row %q twice", ctx, r.j.sig(), k, rk)
					}
					seen[rk] = true
				}
			}
		}
	}
}

// trim runs the bucketed and the reference consolidation under one
// watermark and requires identical retained state on every side.
func (sc *shadowCase) trim(ctx string, wm map[string]uint64) {
	sc.t.Helper()
	sc.g.Trim(wm)
	for _, r := range sc.refs {
		r.trim(wm)
		sameDigest(sc.t, ctx+" left "+r.j.sig(), r.j.lstate.digest(), r.left.digest())
		sameDigest(sc.t, ctx+" right "+r.j.sig(), r.j.rstate.digest(), r.right.digest())
	}
	sc.checkNetted(ctx)
}

// TestConsolidateMatchesReference drives random mod streams through
// 2- and 3-table join graphs and trims under random watermarks. The
// watermarks are drawn independently each time, so they also move
// backwards — stronger than the broker's monotone watermark. After
// every trim each join side must hold exactly the entries the
// whole-side reference keeps: the same netted coordinate-zero rows and
// the same attributed entries, per join key. In the late case the
// 3-table view subscribes halfway, so its top join is seeded from a
// join whose sides hold unconsolidated retractions and re-insertions.
func TestConsolidateMatchesReference(t *testing.T) {
	const steps = 300
	chain := "SELECT r.id, s.id, t.id FROM r, s, t WHERE r.k = s.k AND s.m = t.m"
	cases := []struct {
		name   string
		db     func(*testing.T) *storage.DB
		query  string
		tables []string
		late   string // subscribed at steps/2; until then only the first query's tables change
		early  int    // how many leading tables the first query reads
	}{
		{name: "sales-stations", db: testDB, query: "SELECT s.salekey, st.region FROM sales AS s, stations AS st WHERE s.station = st.stationkey", tables: []string{"sales", "stations"}},
		{name: "r-s-t", db: chainDB, query: chain, tables: []string{"r", "s", "t"}},
		{name: "r-s, then r-s-t", db: chainDB, query: "SELECT r.id, s.id FROM r, s WHERE r.k = s.k", tables: []string{"r", "s", "t"}, late: chain, early: 2},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 8; seed++ {
			db := c.db(t)
			sc := newShadowCase(t, db, c.query)
			gen := newModGen(t, db, seed, c.tables...)
			if c.late != "" {
				gen.active = c.early
			}
			rng := rand.New(rand.NewSource(seed * 7919))
			for step := 0; step < steps; step++ {
				if c.late != "" && step == steps/2 {
					sc.realize(c.late)
					gen.active = len(c.tables)
				}
				sc.ingest(gen.mod())
				if rng.Intn(5) != 0 {
					continue
				}
				wm := make(map[string]uint64, len(c.tables))
				for _, tb := range c.tables {
					wm[tb] = uint64(rng.Int63n(int64(sc.g.LogLen(tb)) + 1))
				}
				sc.trim(fmt.Sprintf("%s seed %d step %d", c.name, seed, step), wm)
			}
			full := make(map[string]uint64, len(c.tables))
			for _, tb := range c.tables {
				full[tb] = sc.g.LogLen(tb)
			}
			sc.trim(fmt.Sprintf("%s seed %d full", c.name, seed), full)
			for _, r := range sc.refs {
				if n := len(r.j.lstate.dirty) + len(r.j.rstate.dirty); n != 0 {
					t.Fatalf("%s seed %d: %d dirty buckets after a full-coverage trim", c.name, seed, n)
				}
			}
		}
	}
}

// TestConsolidateNegativeBase covers a retraction before its insertion
// on a 3-table join: the top join's left input sees the retraction of
// pair (r1, s1) attributed (0, 2) — r1 was consolidated in between —
// while the insertion stays attributed (1, 1). A watermark covering
// only the retraction leaves a base weight of -1, which the insertion
// nets away once covered.
func TestConsolidateNegativeBase(t *testing.T) {
	db := chainDB(t)
	sc := newShadowCase(t, db, "SELECT r.id, s.id, t.id FROM r, s, t WHERE r.k = s.k AND s.m = t.m")
	var top *joinNode
	for _, r := range sc.refs {
		if _, ok := r.j.left.(*joinNode); ok {
			top = r.j
		}
	}
	if top == nil {
		t.Fatal("no join over a join in the 3-table graph")
	}
	mKey := string(appendJoinKey(nil, top.lkeys, storage.Row{storage.I(100), storage.I(7), storage.I(100), storage.I(7), storage.I(0)}))
	baseWeights := func() []int64 {
		var ws []int64
		if b := top.lstate.buckets[mKey]; b != nil {
			for _, e := range b.base {
				if e.row[0].Int() == 100 {
					ws = append(ws, e.w)
				}
			}
		}
		return ws
	}

	sc.ingest("s", ivm.Mod{Kind: ivm.ModInsert, Row: storage.Row{storage.I(100), storage.I(7), storage.I(0)}}) // s seq 1
	sc.ingest("r", ivm.Mod{Kind: ivm.ModInsert, Row: storage.Row{storage.I(100), storage.I(7)}})               // r seq 1: pair @ (1, 1)
	sc.trim("consolidate r1", map[string]uint64{"r": 1})
	sc.ingest("s", ivm.Mod{Kind: ivm.ModDelete, Key: []storage.Value{storage.I(100)}}) // s seq 2: retraction @ (0, 2)
	sc.trim("cover the retraction only", map[string]uint64{"s": 2})
	if ws := baseWeights(); len(ws) != 1 || ws[0] != -1 {
		t.Fatalf("base weights of the retracted pair = %v, want [-1]", ws)
	}
	sc.trim("cover the insertion", map[string]uint64{"r": 1, "s": 2})
	if ws := baseWeights(); len(ws) != 0 {
		t.Fatalf("base weights of the cancelled pair = %v, want none", ws)
	}
}

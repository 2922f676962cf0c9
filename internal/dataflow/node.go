package dataflow

import (
	"bytes"
	"fmt"
	"sort"

	"abivm/internal/exec"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// receiver consumes deltas emitted by an upstream node. Operator nodes
// are receivers (join inputs through port wrappers), and so are view
// sinks (ViewHandle).
type receiver interface {
	onDelta(d Delta)
}

// node is one operator in the shared graph. Rows inside deltas are
// immutable by convention — cloned once on scan ingest, shared freely
// downstream — so retained logs and join states may alias them.
type node interface {
	// sig is the canonical structural signature; nodes with equal
	// signatures compute identical functions of the base tables and are
	// hash-consed into one instance.
	sig() string
	// tables returns the base tables of the node's output in coordinate
	// order (left-deep FROM order).
	tables() []string
	// cols returns the output schema for binding parent expressions.
	cols() []exec.Col
	// current returns a deterministic snapshot of the node's present
	// output as net weighted rows — the seed for newly created parents,
	// which treat it as covered-at-creation (coordinate zero).
	current() []weightedRow
	// addOut / removeOut manage downstream operator edges; attachSink /
	// detachSink manage view sinks (which additionally turn on output
	// retention for crash recovery).
	addOut(r receiver)
	removeOut(r receiver)
	attachSink(r receiver)
	detachSink(r receiver)
	// detach unlinks the node from its children; called when the node's
	// reference count drops to zero.
	detach()
	// fanout is the number of downstream consumers (edges + sinks).
	fanout() int
	// retained returns the retained output log (nil unless a sink ever
	// attached); trim discards retained/stored deltas whose coordinates
	// are all covered by the per-table watermark.
	retained() []Delta
	trim(wm map[string]uint64)
}

// nodeBase carries the shared node mechanics: identity, schema, the
// downstream edge list, and the sink-driven retained output log.
type nodeBase struct {
	signature string
	tabs      []string
	schema    []exec.Col
	outs      []receiver
	sinks     int
	retain    bool
	log       []Delta
}

func (n *nodeBase) sig() string       { return n.signature }
func (n *nodeBase) tables() []string  { return n.tabs }
func (n *nodeBase) cols() []exec.Col  { return n.schema }
func (n *nodeBase) fanout() int       { return len(n.outs) }
func (n *nodeBase) retained() []Delta { return n.log }
func (n *nodeBase) addOut(r receiver) { n.outs = append(n.outs, r) }
func (n *nodeBase) removeOut(r receiver) {
	for i, o := range n.outs {
		if o == r {
			n.outs = append(n.outs[:i], n.outs[i+1:]...)
			return
		}
	}
}

func (n *nodeBase) attachSink(r receiver) {
	n.addOut(r)
	n.sinks++
	n.retain = true
}

func (n *nodeBase) detachSink(r receiver) {
	n.removeOut(r)
	n.sinks--
}

// emit forwards one delta to every consumer in attachment order
// (deterministic: subscription order) and retains it when a sink
// depends on this node for crash recovery.
func (n *nodeBase) emit(d Delta) {
	if n.retain {
		n.log = append(n.log, d)
	}
	for _, o := range n.outs {
		o.onDelta(d)
	}
}

// trimLog drops retained deltas fully covered by the watermark — every
// live view's durable cursors are at or above wm, so no recovery will
// ever need them again.
func (n *nodeBase) trimLog(wm map[string]uint64) {
	if len(n.log) == 0 {
		return
	}
	kept := n.log[:0]
	for _, d := range n.log {
		if !d.Coord.coveredBy(n.tabs, wm) {
			kept = append(kept, d)
		}
	}
	clear(n.log[len(kept):])
	n.log = release(kept, len(n.log))
}

// releaseMin is the capacity up to which release keeps a slice as is:
// small slices are cheaper to keep than to regrow.
const releaseMin = 256

// release returns the capacity a burst left behind in a trimmed slice.
// demand is the slice's length before the trim — what the last
// checkpoint interval needed. A slice the trim emptied is dropped
// outright; otherwise it is reallocated to demand once its capacity
// exceeds four times that, i.e. at the first trim after a burst has
// passed. Steady-state slices hold at most about twice their demand,
// so they are never reallocated.
func release[T any](s []T, demand int) []T {
	switch c := cap(s); {
	case c <= releaseMin:
		return s
	case len(s) == 0:
		return nil
	case c > 4*demand:
		return append(make([]T, 0, demand), s...)
	}
	return s
}

// scanNode is a base-table source. It mirrors the live table (base
// snapshot plus every ingested modification) so deletes and updates can
// resolve the old row, and stamps each emitted delta with the 1-based
// ingest sequence number as its coordinate.
type scanNode struct {
	nodeBase
	tableName string
	keyCols   []int
	state     map[string]storage.Row
	mods      uint64
}

func newScanNode(sig string, tbl *storage.Table) *scanNode {
	schema := tbl.Schema()
	cols := make([]exec.Col, len(schema.Columns))
	for i, c := range schema.Columns {
		cols[i] = exec.Col{Table: schema.Name, Name: c.Name, Type: c.Type}
	}
	s := &scanNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      []string{schema.Name},
			schema:    cols,
		},
		tableName: schema.Name,
		keyCols:   schema.Key,
		state:     make(map[string]storage.Row, tbl.Len()),
	}
	tbl.Scan(func(r storage.Row) bool {
		row := r.Clone()
		s.state[storage.EncodeKey(row.Project(s.keyCols)...)] = row
		return true
	})
	return s
}

func (s *scanNode) detach() {}

// ingest converts one base-table modification into signed deltas and
// propagates them. The coordinate is the modification's position on the
// table's ingest log; an update emits its retraction and insertion
// under the same coordinate, so views always fold both or neither.
func (s *scanNode) ingest(mod ivm.Mod) error {
	seq := s.mods + 1
	switch mod.Kind {
	case ivm.ModInsert:
		row := mod.Row.Clone()
		key := storage.EncodeKey(row.Project(s.keyCols)...)
		if _, ok := s.state[key]; ok {
			return fmt.Errorf("dataflow: insert over existing key on %q", s.tableName)
		}
		s.mods = seq
		s.state[key] = row
		s.emit(Delta{Row: row, W: 1, Coord: Coord{seq}})
	case ivm.ModDelete:
		key := storage.EncodeKey(mod.Key...)
		old, ok := s.state[key]
		if !ok {
			return fmt.Errorf("dataflow: delete of missing key on %q", s.tableName)
		}
		s.mods = seq
		delete(s.state, key)
		s.emit(Delta{Row: old, W: -1, Coord: Coord{seq}})
	case ivm.ModUpdate:
		key := storage.EncodeKey(mod.Key...)
		old, ok := s.state[key]
		if !ok {
			return fmt.Errorf("dataflow: update of missing key on %q", s.tableName)
		}
		row := mod.Row.Clone()
		if storage.EncodeKey(row.Project(s.keyCols)...) != key {
			return fmt.Errorf("dataflow: update must not change the primary key on %q", s.tableName)
		}
		s.mods = seq
		s.state[key] = row
		s.emit(Delta{Row: old, W: -1, Coord: Coord{seq}})
		s.emit(Delta{Row: row, W: 1, Coord: Coord{seq}})
	default:
		return fmt.Errorf("dataflow: unknown modification kind %d", mod.Kind)
	}
	return nil
}

func (s *scanNode) current() []weightedRow {
	keys := make([]string, 0, len(s.state))
	for k := range s.state {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]weightedRow, 0, len(keys))
	for _, k := range keys {
		out = append(out, weightedRow{row: s.state[k], w: 1})
	}
	return out
}

func (s *scanNode) trim(wm map[string]uint64) { s.trimLog(wm) }

// filterNode applies a conjunction of predicates.
type filterNode struct {
	nodeBase
	child node
	preds []exec.Predicate
}

func newFilterNode(sig string, child node, preds []exec.Predicate) *filterNode {
	f := &filterNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      child.tables(),
			schema:    child.cols(),
		},
		child: child,
		preds: preds,
	}
	child.addOut(f)
	return f
}

func (f *filterNode) pass(r storage.Row) bool {
	for _, p := range f.preds {
		if !p(r) {
			return false
		}
	}
	return true
}

func (f *filterNode) onDelta(d Delta) {
	if f.pass(d.Row) {
		f.emit(d)
	}
}

func (f *filterNode) current() []weightedRow {
	var out []weightedRow
	for _, wr := range f.child.current() {
		if f.pass(wr.row) {
			out = append(out, wr)
		}
	}
	return out
}

func (f *filterNode) detach()                   { f.child.removeOut(f) }
func (f *filterNode) trim(wm map[string]uint64) { f.trimLog(wm) }

// projectNode evaluates scalar select items.
type projectNode struct {
	nodeBase
	child   node
	scalars []exec.Scalar
}

func newProjectNode(sig string, child node, scalars []exec.Scalar, cols []exec.Col) *projectNode {
	p := &projectNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      child.tables(),
			schema:    cols,
		},
		child:   child,
		scalars: scalars,
	}
	child.addOut(p)
	return p
}

func (p *projectNode) project(r storage.Row) storage.Row {
	out := make(storage.Row, len(p.scalars))
	for i, s := range p.scalars {
		out[i] = s(r)
	}
	return out
}

func (p *projectNode) onDelta(d Delta) {
	p.emit(Delta{Row: p.project(d.Row), W: d.W, Coord: d.Coord})
}

func (p *projectNode) current() []weightedRow {
	var out []weightedRow
	for _, wr := range p.child.current() {
		out = append(out, weightedRow{row: p.project(wr.row), w: wr.w})
	}
	return out
}

func (p *projectNode) detach()                   { p.child.removeOut(p) }
func (p *projectNode) trim(wm map[string]uint64) { p.trimLog(wm) }

// port disambiguates which input of a binary join a delta arrives on.
type port struct {
	j    *joinNode
	left bool
}

func (p *port) onDelta(d Delta) { p.j.onSide(p.left, d) }

// stateEntry is one retained, still-attributed input delta of a join
// side: the row, its attribution, and its signed weight.
type stateEntry struct {
	row   storage.Row
	coord Coord
	w     int64
}

// baseEntry is one coordinate-zero entry of a join bucket: a row whose
// contributions are all below the GC watermark, netted to one weight.
// h caches a hash of the row's key encoding; it is set only once the
// bucket is hashed (see bucket.hashed).
type baseEntry struct {
	row storage.Row
	w   int64
	h   uint64
}

// bucket is one equi-join key's retained state on one join side. The
// base slice is always sized exactly to its length — append-doubling on
// thousands of buckets would hold a large share of dead capacity — and
// attributed entries wait in the separate delta slice until a trim
// covers them.
type bucket struct {
	key    string
	base   []baseEntry
	delta  []stateEntry
	hashed bool // base[i].h is valid; set on the bucket's first consolidation
}

// each calls fn on every retained entry, base then delta.
func (b *bucket) each(fn func(row storage.Row, w int64)) {
	for i := range b.base {
		fn(b.base[i].row, b.base[i].w)
	}
	for i := range b.delta {
		fn(b.delta[i].row, b.delta[i].w)
	}
}

// sideState is one join input's retained history, bucketed by equi-join
// key. dirty lists exactly the buckets holding attributed entries, in
// first-touch order, so a trim visits only the keys that changed.
type sideState struct {
	tabs    []string // the input's tables, in coordinate order
	zero    Coord    // the coordinate of every base entry, shared
	buckets map[string]*bucket
	dirty   []*bucket

	// Consolidation scratch, reused across trims.
	keyBuf, cmpBuf []byte
	adds           []baseEntry
}

func newSideState(tabs []string) sideState {
	return sideState{tabs: tabs, zero: make(Coord, len(tabs)), buckets: make(map[string]*bucket)}
}

// bucketFor returns the bucket of an encoded join key, creating it on
// first use; the lookup itself does not allocate.
func (s *sideState) bucketFor(key []byte) *bucket {
	b := s.buckets[string(key)]
	if b == nil {
		b = &bucket{key: string(key)}
		s.buckets[b.key] = b
	}
	return b
}

// seed installs a child's present output as coordinate-zero base
// entries, sizing every bucket's base exactly. Rows are hashed lazily,
// on a bucket's first consolidation, so seeding stays a single pass of
// key encoding.
func (s *sideState) seed(rows []weightedRow, keyFns []exec.Scalar) {
	owner := make([]*bucket, len(rows))
	sizes := make(map[*bucket]int)
	var buf []byte
	for i, wr := range rows {
		buf = appendJoinKey(buf[:0], keyFns, wr.row)
		owner[i] = s.bucketFor(buf)
		sizes[owner[i]]++
	}
	for i, wr := range rows {
		b := owner[i]
		if b.base == nil {
			b.base = make([]baseEntry, 0, sizes[b])
		}
		b.base = append(b.base, baseEntry{row: wr.row, w: wr.w})
	}
}

// add appends an attributed entry to the bucket of its encoded key.
func (s *sideState) add(key []byte, e stateEntry) {
	b := s.bucketFor(key)
	if len(b.delta) == 0 {
		s.dirty = append(s.dirty, b)
	}
	b.delta = append(b.delta, e)
}

// consolidate nets every delta entry fully covered by the watermark
// into its bucket's base — one entry per distinct row, rows whose
// weights cancel dropped — and keeps uncovered entries verbatim. Safe
// because every live cursor is at or above the watermark and new
// subscribers start fully covered: nobody can ever distinguish a
// covered entry's coordinate from zero again. Only dirty buckets are
// visited. A bucket's base rows are hashed once; after that a base row
// is encoded again only to confirm a hash match.
func (s *sideState) consolidate(wm map[string]uint64) {
	kept := s.dirty[:0]
	for _, b := range s.dirty {
		s.consolidateBucket(b, wm)
		switch {
		case len(b.delta) > 0:
			kept = append(kept, b)
		case len(b.base) == 0:
			delete(s.buckets, b.key)
		}
	}
	clear(s.dirty[len(kept):])
	s.dirty = kept
}

func (s *sideState) consolidateBucket(b *bucket, wm map[string]uint64) {
	live := b.delta[:0]
	adds := s.adds[:0]
	merged := false
	for _, e := range b.delta {
		if !e.coord.coveredBy(s.tabs, wm) {
			live = append(live, e)
			continue
		}
		if !b.hashed {
			for i := range b.base {
				s.keyBuf = storage.AppendKey(s.keyBuf[:0], b.base[i].row...)
				b.base[i].h = hashKey(s.keyBuf)
			}
			b.hashed = true
		}
		merged = true
		s.keyBuf = storage.AppendKey(s.keyBuf[:0], e.row...)
		h := hashKey(s.keyBuf)
		if i := s.match(b.base, h); i >= 0 {
			b.base[i].w += e.w
		} else if i := s.match(adds, h); i >= 0 {
			adds[i].w += e.w
		} else {
			adds = append(adds, baseEntry{row: e.row, w: e.w, h: h})
		}
	}
	clear(b.delta[len(live):])
	b.delta = release(live, len(b.delta))
	if merged {
		b.base = mergeBase(b.base, adds)
	}
	clear(adds)
	s.adds = release(adds[:0], len(adds))
}

// match returns the index of the entry whose row encodes to s.keyBuf
// (hash h), or -1. The cached hash filters; the encodings confirm.
func (s *sideState) match(es []baseEntry, h uint64) int {
	for i := range es {
		if es[i].h != h {
			continue
		}
		s.cmpBuf = storage.AppendKey(s.cmpBuf[:0], es[i].row...)
		if bytes.Equal(s.cmpBuf, s.keyBuf) {
			return i
		}
	}
	return -1
}

// mergeBase nets adds into base: new rows first take the slots of
// cancelled base rows, so an update's retraction and insertion rewrite
// one slot in place. Only when the row count changes is the base
// reallocated, sized exactly.
func mergeBase(base, adds []baseEntry) []baseEntry {
	ai := 0
	next := func() bool {
		for ai < len(adds) && adds[ai].w == 0 {
			ai++
		}
		return ai < len(adds)
	}
	n := 0
	for i := range base {
		if base[i].w == 0 && next() {
			base[i] = adds[ai]
			ai++
		}
		if base[i].w != 0 {
			n++
		}
	}
	grow := 0
	for i := ai; i < len(adds); i++ {
		if adds[i].w != 0 {
			grow++
		}
	}
	if grow == 0 && n == len(base) {
		return base
	}
	if n+grow == 0 {
		return nil
	}
	out := make([]baseEntry, 0, n+grow)
	for _, src := range [2][]baseEntry{base, adds[ai:]} {
		for i := range src {
			if src[i].w != 0 {
				out = append(out, src[i])
			}
		}
	}
	return out
}

// hashKey is 64-bit FNV-1a over a key encoding.
func hashKey(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range key {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// appendJoinKey appends the EncodeKey encoding of r's equi-join key.
func appendJoinKey(buf []byte, fns []exec.Scalar, r storage.Row) []byte {
	for _, fn := range fns {
		buf = storage.AppendKey(buf, fn(r))
	}
	return buf
}

// joinNode is a binary equi-join with optional residual predicates over
// the concatenated row. Delta rule: a delta on one side joins the other
// side's full retained state (including negative-weight entries), THEN
// is appended to its own side — each (left, right) pair is produced
// exactly once, when the later of its two inputs arrives.
type joinNode struct {
	nodeBase
	left, right         node
	leftPort, rightPort *port
	lkeys, rkeys        []exec.Scalar
	residual            []exec.Predicate
	lstate, rstate      sideState
	keyBuf              []byte // onSide's join-key scratch
}

func newJoinNode(sig string, left, right node, lkeys, rkeys []exec.Scalar, residual []exec.Predicate, cols []exec.Col) *joinNode {
	tabs := make([]string, 0, len(left.tables())+len(right.tables()))
	tabs = append(tabs, left.tables()...)
	tabs = append(tabs, right.tables()...)
	j := &joinNode{
		nodeBase: nodeBase{
			signature: sig,
			tabs:      tabs,
			schema:    cols,
		},
		left:     left,
		right:    right,
		lkeys:    lkeys,
		rkeys:    rkeys,
		residual: residual,
		lstate:   newSideState(left.tables()),
		rstate:   newSideState(right.tables()),
	}
	j.leftPort = &port{j: j, left: true}
	j.rightPort = &port{j: j, left: false}
	// Seed each side from the child's present output: the new node (and
	// the one new view behind it) treats everything already there as
	// covered at creation.
	j.lstate.seed(left.current(), lkeys)
	j.rstate.seed(right.current(), rkeys)
	left.addOut(j.leftPort)
	right.addOut(j.rightPort)
	return j
}

func (j *joinNode) pass(r storage.Row) bool {
	for _, p := range j.residual {
		if !p(r) {
			return false
		}
	}
	return true
}

func (j *joinNode) onSide(left bool, d Delta) {
	own, other, ownKeys := &j.rstate, &j.lstate, j.rkeys
	if left {
		own, other, ownKeys = &j.lstate, &j.rstate, j.lkeys
	}
	j.keyBuf = appendJoinKey(j.keyBuf[:0], ownKeys, d.Row)
	if b := other.buckets[string(j.keyBuf)]; b != nil {
		for i := range b.base {
			j.probe(left, d, b.base[i].row, other.zero, b.base[i].w)
		}
		for i := range b.delta {
			j.probe(left, d, b.delta[i].row, b.delta[i].coord, b.delta[i].w)
		}
	}
	own.add(j.keyBuf, stateEntry{row: d.Row, coord: d.Coord, w: d.W})
}

// probe emits the join of delta d (arriving on the left input when
// left is set) with one retained entry of the other side.
func (j *joinNode) probe(left bool, d Delta, row storage.Row, coord Coord, w int64) {
	var out storage.Row
	var c Coord
	if left {
		out = concatRows(d.Row, row)
		c = concatCoords(d.Coord, coord)
	} else {
		out = concatRows(row, d.Row)
		c = concatCoords(coord, d.Coord)
	}
	if !j.pass(out) {
		return
	}
	j.emit(Delta{Row: out, W: d.W * w, Coord: c})
}

// current walks the join keys in sorted order, so the snapshot is
// deterministic, and nets equal rows: a side's attributed entries can
// retract and re-insert a row its base already holds.
func (j *joinNode) current() []weightedRow {
	keys := make([]string, 0, len(j.lstate.buckets))
	for k := range j.lstate.buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var out []weightedRow
	at := make(map[string]int)
	for _, k := range keys {
		rb := j.rstate.buckets[k]
		if rb == nil {
			continue
		}
		j.lstate.buckets[k].each(func(lrow storage.Row, lw int64) {
			rb.each(func(rrow storage.Row, rw int64) {
				row := concatRows(lrow, rrow)
				if !j.pass(row) {
					return
				}
				rk := storage.EncodeKey(row...)
				if i, ok := at[rk]; ok {
					out[i].w += lw * rw
					return
				}
				at[rk] = len(out)
				out = append(out, weightedRow{row: row, w: lw * rw})
			})
		})
	}
	net := out[:0]
	for _, wr := range out {
		if wr.w != 0 {
			net = append(net, wr)
		}
	}
	return net
}

func (j *joinNode) detach() {
	j.left.removeOut(j.leftPort)
	j.right.removeOut(j.rightPort)
}

func (j *joinNode) trim(wm map[string]uint64) {
	j.trimLog(wm)
	j.lstate.consolidate(wm)
	j.rstate.consolidate(wm)
}

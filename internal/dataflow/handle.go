package dataflow

import (
	"fmt"
	"time"

	"abivm/internal/exec"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/plan"
	"abivm/internal/storage"
)

// ViewHandle is one view's sink on the shared graph: the per-view
// cursors, the pending (propagated-but-not-yet-folded) deltas, and the
// foldable view state. It mirrors the broker-facing surface of
// ivm.Maintainer — aliases, pending counts, ProcessBatch with the same
// fault-injection sites, WAL, checkpoint/recover — so the pub/sub layer
// drives either runtime through the same choreography.
//
// The asymmetry of the paper survives sharing: operators propagate
// eagerly, but folding stays per-view and per-table — ProcessBatch
// advances exactly one table's cursor by exactly k modifications, and
// only deltas whose every coordinate is covered fold into the view.
type ViewHandle struct {
	g    *Graph
	plan *ivm.DeltaPlan

	aliases  []string
	tables   map[string]string // alias -> table name
	top      node
	sigs     []string // post-order node signatures (the refcount receipt)
	tabOrder []string // top node's coordinate order (== FROM order)

	cursors map[string]uint64 // table -> covered ingest-log prefix
	pending []Delta           // propagated deltas not yet covered
	view    *ivm.ViewState
	stats   *storage.Stats

	wal  *ivm.WAL
	inj  fault.Injector
	ns   string
	obs  *ivm.Metrics
	snap *handleSnapshot

	scratchCur map[string]uint64 // drain-phase tentative cursors, reused
}

// handleSnapshot is a checkpoint of the per-view state. It lives in the
// handle (the in-memory durability tier, like the broker's default
// checkpoint chain); the shared graph itself is not checkpointed — it
// survives per-view crashes exactly as the live database does.
type handleSnapshot struct {
	lsn     uint64
	cursors map[string]uint64
	state   ivm.ViewStateSnapshot
	ns      string
}

func newViewHandle(g *Graph, p *ivm.DeltaPlan, top node, sigs []string) (*ViewHandle, error) {
	h := &ViewHandle{
		g:        g,
		plan:     p,
		tables:   make(map[string]string, len(p.Sources)),
		top:      top,
		sigs:     sigs,
		tabOrder: top.tables(),
		cursors:  make(map[string]uint64, len(p.Sources)),
		stats:    &storage.Stats{},
	}
	for _, s := range p.Sources {
		h.aliases = append(h.aliases, s.Alias)
		h.tables[s.Alias] = s.Table
		h.cursors[s.Table] = g.LogLen(s.Table)
	}
	h.view = ivm.NewViewState(p, h.stats)
	if err := h.initialize(); err != nil {
		return nil, err
	}
	return h, nil
}

// initialize computes the initial content by running the delta query
// over the live database — which is exactly base plus the ingest-log
// prefixes the subscribe-time cursors cover.
func (h *ViewHandle) initialize() error {
	op, err := plan.Compile(h.plan.Delta, nil, &plan.Options{
		Resolve: h.g.db.Table,
		Stats:   h.stats,
	})
	if err != nil {
		return err
	}
	rows, err := exec.Collect(op)
	if err != nil {
		return err
	}
	h.view.Add(rows)
	*h.stats = storage.Stats{} // initial computation is setup cost
	return nil
}

// onDelta receives one propagated delta from the top operator. Freshly
// emitted deltas always carry at least one uncovered coordinate, so
// they are pending by construction.
func (h *ViewHandle) onDelta(d Delta) { h.pending = append(h.pending, d) }

// Plan returns the view's delta plan, shared and read-only.
func (h *ViewHandle) Plan() *ivm.DeltaPlan { return h.plan }

// Aliases returns the FROM aliases in order; index i corresponds to the
// paper's base table R_i.
func (h *ViewHandle) Aliases() []string { return h.aliases }

// TableOf returns the base-table name behind a FROM alias, or "".
func (h *ViewHandle) TableOf(alias string) string { return h.tables[alias] }

// Stats exposes the view-side work-unit counters (folds and drain
// setups; operator work is shared and charged to the graph's tables).
func (h *ViewHandle) Stats() *storage.Stats { return h.stats }

// Signatures returns the view's operator signatures in post-order.
func (h *ViewHandle) Signatures() []string { return h.sigs }

// AttachWAL makes the handle record arrivals and drain commits to w,
// enabling Checkpoint/Recover. A nil w detaches.
func (h *ViewHandle) AttachWAL(w *ivm.WAL) { h.wal = w }

// WAL returns the attached redo log, or nil.
func (h *ViewHandle) WAL() *ivm.WAL { return h.wal }

// SetNamespace names the handle's durability namespace; checkpoints
// carry it and Recover validates it.
func (h *ViewHandle) SetNamespace(ns string) { h.ns = ns }

// Namespace returns the durability namespace, or "".
func (h *ViewHandle) Namespace() string { return h.ns }

// SetInjector installs a fault injector consulted at the drain sites.
func (h *ViewHandle) SetInjector(inj fault.Injector) { h.inj = inj }

// SetMetrics attaches the maintainer instrumentation bundle.
func (h *ViewHandle) SetMetrics(ms *ivm.Metrics) { h.obs = ms }

func (h *ViewHandle) hit(site fault.Site) error {
	if h.inj == nil {
		return nil
	}
	return h.inj.Hit(site)
}

// ApplyDeferred records modifications the graph has already ingested
// to the WAL — the shared graph holds the modifications themselves
// (a view's pending set is its cursors against the ingest log); the
// records only preserve the arrival order for post-checkpoint replay
// parity. It mirrors ivm.Maintainer.ApplyDeferred, so a broker routes
// to either engine through one method.
func (h *ViewHandle) ApplyDeferred(mods ...ivm.Mod) error {
	if h.wal == nil {
		return nil
	}
	for _, mod := range mods {
		if _, err := h.wal.Append(ivm.WALRecord{Kind: ivm.WALArrival, Mod: mod}); err != nil {
			return err
		}
	}
	return nil
}

// Pending returns the per-table backlog sizes in alias order — the
// paper's state vector s. For a shared view the backlog of table i is
// the ingest-log length minus the view's cursor.
func (h *ViewHandle) Pending() []int { return h.PendingInto(nil) }

// PendingInto is Pending writing into dst, the allocation-free variant.
func (h *ViewHandle) PendingInto(dst []int) []int {
	if cap(dst) < len(h.aliases) {
		dst = make([]int, len(h.aliases))
	}
	dst = dst[:len(h.aliases)]
	for i, a := range h.aliases {
		t := h.tables[a]
		dst[i] = int(h.g.LogLen(t) - h.cursors[t])
	}
	return dst
}

// ProcessBatch advances the alias's cursor by the earliest k pending
// modifications and folds every delta that becomes fully covered into
// the view — the action primitive, with the maintainer's drain fault
// sites (plan, apply, wal-commit) hit in the same order so chaos
// scripts consume injector polls identically in both modes.
func (h *ViewHandle) ProcessBatch(alias string, k int) error {
	if h.obs == nil {
		return h.processBatch(alias, k)
	}
	//lint:ignore nondet drain latency feeds metrics only, never maintained state
	start := time.Now()
	err := h.processBatch(alias, k)
	//lint:ignore nondet measurement of the drain, not part of it
	h.obs.ObserveDrain(time.Since(start), k, err)
	return err
}

func (h *ViewHandle) processBatch(alias string, k int) error {
	table, ok := h.tables[alias]
	if !ok {
		return fmt.Errorf("dataflow: unknown alias %q", alias)
	}
	avail := int(h.g.LogLen(table) - h.cursors[table])
	if k < 0 || k > avail {
		return fmt.Errorf("dataflow: batch size %d out of range (queue %d)", k, avail)
	}
	if k == 0 {
		return nil
	}
	if err := h.hit(fault.SiteDrainPlan); err != nil {
		return err
	}
	// Plan phase (mutates nothing): tentative cursors, then the set of
	// pending deltas they newly cover.
	if h.scratchCur == nil {
		h.scratchCur = make(map[string]uint64, len(h.tabOrder))
	}
	for t, c := range h.cursors {
		h.scratchCur[t] = c
	}
	h.scratchCur[table] += uint64(k)
	covered := 0
	for _, d := range h.pending {
		if d.Coord.coveredBy(h.tabOrder, h.scratchCur) {
			covered++
		}
	}
	if err := h.hit(fault.SiteDrainApply); err != nil {
		return err
	}
	if err := h.hit(fault.SiteWALCommit); err != nil {
		return err
	}
	// Commit point: fold the covered deltas, log the drain, advance the
	// cursor, trim the pending set.
	h.foldCovered(h.scratchCur)
	if h.wal != nil {
		if _, err := h.wal.Append(ivm.WALRecord{Kind: ivm.WALDrain, Alias: alias, K: k}); err != nil {
			h.unfoldCovered(h.scratchCur)
			return fmt.Errorf("dataflow: wal commit: %w", err)
		}
	}
	h.cursors[table] = h.scratchCur[table]
	kept := h.pending[:0]
	for _, d := range h.pending {
		if !d.Coord.coveredBy(h.tabOrder, h.scratchCur) {
			kept = append(kept, d)
		}
	}
	for i := len(kept); i < len(h.pending); i++ {
		h.pending[i] = Delta{}
	}
	h.pending = kept
	h.stats.BatchSetups++
	return nil
}

// foldCovered folds every pending delta covered by cur into the view
// state: net weight per distinct row in first-touch order, positive
// nets applied before negative ones. Netting keeps the fold equal to
// the per-view maintainer's net-delta fold; positives-first guarantees
// no transient negative bag or group count even though the shared
// graph's delta order differs from the maintainer's minus-then-plus
// row sets.
func (h *ViewHandle) foldCovered(cur map[string]uint64) {
	order := h.netCovered(cur)
	for _, e := range order {
		if e.w > 0 {
			h.view.AddWeighted(e.row, e.w)
		}
	}
	for _, e := range order {
		if e.w < 0 {
			h.view.AddWeighted(e.row, e.w)
		}
	}
}

// unfoldCovered exactly inverts foldCovered (negatives first), used to
// compensate a failed WAL commit.
func (h *ViewHandle) unfoldCovered(cur map[string]uint64) {
	order := h.netCovered(cur)
	for _, e := range order {
		if e.w < 0 {
			h.view.AddWeighted(e.row, -e.w)
		}
	}
	for _, e := range order {
		if e.w > 0 {
			h.view.AddWeighted(e.row, -e.w)
		}
	}
}

type netEntry struct {
	row storage.Row
	w   int64
}

func (h *ViewHandle) netCovered(cur map[string]uint64) []*netEntry {
	nets := make(map[string]*netEntry)
	var order []*netEntry
	for _, d := range h.pending {
		if !d.Coord.coveredBy(h.tabOrder, cur) {
			continue
		}
		key := storage.EncodeKey(d.Row...)
		e, ok := nets[key]
		if !ok {
			e = &netEntry{row: d.Row}
			nets[key] = e
			order = append(order, e)
		}
		e.w += d.W
	}
	return order
}

// Refresh drains every pending modification, one full batch per table
// in alias order, bringing the view fully up to date.
func (h *ViewHandle) Refresh() error {
	for _, alias := range h.aliases {
		t := h.tables[alias]
		if n := int(h.g.LogLen(t) - h.cursors[t]); n > 0 {
			if err := h.ProcessBatch(alias, n); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result renders the current view content — same layout as the
// per-view maintainer and the planner.
func (h *ViewHandle) Result() []storage.Row { return h.view.Result() }

// Checkpoint captures the per-view durable state (cursors, view
// content, WAL position) in memory. Everything at or below the captured
// LSN may be truncated from the WAL afterwards.
func (h *ViewHandle) Checkpoint() error {
	//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
	start := time.Now()
	snap := &handleSnapshot{
		cursors: make(map[string]uint64, len(h.cursors)),
		state:   h.view.Snapshot(),
		ns:      h.ns,
	}
	for t, c := range h.cursors {
		snap.cursors[t] = c
	}
	if h.wal != nil {
		snap.lsn = h.wal.LastLSN()
	}
	h.snap = snap
	if h.obs != nil {
		//lint:ignore nondet measurement of the checkpoint, not part of it
		h.obs.ObserveCheckpoint(time.Since(start), 0)
	}
	return nil
}

// TipLSN returns the WAL position the last checkpoint covers.
func (h *ViewHandle) TipLSN() uint64 {
	if h.snap == nil {
		return 0
	}
	return h.snap.lsn
}

// DurableCursors returns the per-table cursors of the last checkpoint —
// the view's contribution to the graph's GC watermark. Nil when no
// checkpoint was ever taken (the broker checkpoints at subscribe, so
// this is transient).
func (h *ViewHandle) DurableCursors() map[string]uint64 {
	if h.snap == nil {
		return nil
	}
	return h.snap.cursors
}

// Recover rebuilds the view from its last checkpoint plus the WAL
// suffix: restore cursors and content, rebuild the pending set from the
// top operator's retained output (the shared graph survives a per-view
// crash exactly as the live database does), then redo logged drains.
// Arrival records only validate — their deltas are already in the
// graph. The WAL and injector stay detached during replay.
func (h *ViewHandle) Recover() error {
	if h.snap == nil {
		return fmt.Errorf("dataflow: no checkpoint to recover %q from", h.ns)
	}
	if h.snap.ns != h.ns {
		return fmt.Errorf("dataflow: checkpoint namespace %q, want %q", h.snap.ns, h.ns)
	}
	view := ivm.NewViewState(h.plan, h.stats)
	if err := view.Restore(h.snap.state); err != nil {
		return err
	}
	h.view = view
	for t := range h.cursors {
		h.cursors[t] = h.snap.cursors[t]
	}
	h.pending = h.pending[:0]
	for _, d := range h.top.retained() {
		if !d.Coord.coveredBy(h.tabOrder, h.cursors) {
			h.pending = append(h.pending, d)
		}
	}
	wal, inj := h.wal, h.inj
	h.wal, h.inj = nil, nil
	replayed := 0
	if wal != nil {
		if err := wal.Replay(h.snap.lsn, func(rec ivm.WALRecord) error {
			replayed++
			switch rec.Kind {
			case ivm.WALArrival:
				if _, ok := h.tables[rec.Mod.Alias]; !ok {
					return fmt.Errorf("dataflow: wal arrival for unknown alias %q", rec.Mod.Alias)
				}
				return nil
			case ivm.WALDrain:
				if err := h.processBatch(rec.Alias, rec.K); err != nil {
					return fmt.Errorf("dataflow: replaying drain lsn=%d %s/%d: %w", rec.LSN, rec.Alias, rec.K, err)
				}
				return nil
			default:
				return fmt.Errorf("dataflow: unknown wal record kind %d at lsn %d", rec.Kind, rec.LSN)
			}
		}); err != nil {
			h.wal, h.inj = wal, inj
			return err
		}
	}
	h.wal, h.inj = wal, inj
	if h.obs != nil {
		h.obs.ObserveRecovery(replayed)
	}
	// Replay work is recovery overhead, not maintenance cost.
	*h.stats = storage.Stats{}
	return nil
}

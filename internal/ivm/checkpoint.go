package ivm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"time"
)

// Checkpointing: a CheckpointChain keeps one base segment (the full
// replica state) plus a chain of delta segments, each covering the WAL
// range since the previous segment. A delta serializes only the replica
// rows committed drains have touched (the maintainer's dirty-key set)
// plus the pending queues — typically a few rows instead of every
// table. Once the chain holds its configured number of deltas, the next
// checkpoint rolls over: it writes a fresh base straight from the live
// maintainer and drops the old chain, so recovery never folds more than
// maxDepth segments. Depth 0 rolls over every time, which is plain full
// checkpointing.

// checkpointVersion guards against reading base segments written by an
// incompatible layout.
const checkpointVersion = 1

// checkpointDTO is the on-stream base-segment format: the replica
// database (the exact state the view reflects), the pending delta
// queues, and the WAL position the segment covers. The view content
// itself is not stored — it is a pure function of the replicas (the
// delta query over them), so Recover recomputes it, keeping the format
// small and immune to view-state layout changes.
type checkpointDTO struct {
	Version int
	LSN     uint64
	Replica []byte
	Queues  map[string][]Mod
	// Namespace identifies whose state this checkpoint is (see
	// Maintainer.SetNamespace); "" for un-namespaced maintainers.
	Namespace string
}

// deltaCheckpointVersion guards against reading delta segments written
// by an incompatible layout. It is independent of checkpointVersion.
const deltaCheckpointVersion = 1

// deltaDTO is the on-stream delta-segment format. FromLSN names the WAL
// position of the segment it extends and LSN the position it covers
// through; Recover refuses a chain whose FromLSN links don't match —
// the truncated/reordered-chain guard. Queues replace the pending
// queues wholesale (they are step-sized), while Delta carries only the
// changed replica rows (see storage.WriteSnapshotDelta).
type deltaDTO struct {
	Version   int
	FromLSN   uint64
	LSN       uint64
	Delta     []byte
	Queues    map[string][]Mod
	Namespace string
}

// encodeSegment serializes one checkpoint segment — a full base, or a
// delta extending the segment that covered fromLSN — timing and sizing
// it for the attached metrics. It leaves the dirty-key set alone: the
// chain clears it only once the segment is stored.
func (m *Maintainer) encodeSegment(full bool, fromLSN, lsn uint64) ([]byte, error) {
	var buf bytes.Buffer
	var start time.Time
	if m.obs != nil {
		//lint:ignore nondet checkpoint latency feeds metrics only, never checkpoint content
		start = time.Now()
	}
	if err := m.writeSegment(&buf, full, fromLSN, lsn); err != nil {
		return nil, err
	}
	if m.obs != nil {
		//lint:ignore nondet measurement of the checkpoint, not part of it
		elapsed := time.Since(start)
		if full {
			m.obs.ObserveCheckpoint(elapsed, buf.Len())
		} else {
			m.obs.observeCheckpointDelta(elapsed, buf.Len())
		}
	}
	return buf.Bytes(), nil
}

// writeSegment encodes a base (full) or delta segment to w. The replica
// serialization buffer and the queue copies are reused across
// checkpoints (cpBuf / the modPool free list): the encoder consumes them
// before this function returns, so nothing escapes.
func (m *Maintainer) writeSegment(w io.Writer, full bool, fromLSN, lsn uint64) error {
	m.cpBuf.Reset()
	queues := m.takeQueues()
	defer m.releaseQueues(queues)
	enc := gob.NewEncoder(w)
	if full {
		if err := m.replica.WriteSnapshot(&m.cpBuf); err != nil {
			return fmt.Errorf("ivm: checkpoint replica snapshot: %w", err)
		}
		dto := checkpointDTO{Version: checkpointVersion, LSN: lsn, Replica: m.cpBuf.Bytes(), Queues: queues, Namespace: m.ns}
		if err := enc.Encode(dto); err != nil {
			return fmt.Errorf("ivm: encoding checkpoint: %w", err)
		}
		return nil
	}
	if err := m.replica.WriteSnapshotDelta(&m.cpBuf, m.dirty); err != nil {
		return fmt.Errorf("ivm: checkpoint replica delta: %w", err)
	}
	dto := deltaDTO{Version: deltaCheckpointVersion, FromLSN: fromLSN, LSN: lsn, Delta: m.cpBuf.Bytes(), Queues: queues, Namespace: m.ns}
	if err := enc.Encode(dto); err != nil {
		return fmt.Errorf("ivm: encoding checkpoint delta: %w", err)
	}
	return nil
}

// takeQueues copies the pending delta queues into pooled slices for a
// checkpoint DTO. The copies stay valid until releaseQueues returns
// them to the free list — which the caller does once the DTO is
// encoded, so steady-state checkpointing reuses the same arrays.
func (m *Maintainer) takeQueues() map[string][]Mod {
	if m.cpQueues == nil {
		m.cpQueues = make(map[string][]Mod, len(m.aliases))
	}
	for _, alias := range m.aliases {
		m.cpQueues[alias] = append(m.qpool.get(len(m.deltas[alias])), m.deltas[alias]...)
	}
	return m.cpQueues
}

// releaseQueues returns a takeQueues result to the free list.
func (m *Maintainer) releaseQueues(qs map[string][]Mod) {
	for _, alias := range m.aliases {
		if q, ok := qs[alias]; ok {
			m.qpool.put(q)
			delete(qs, alias)
		}
	}
}

// modPool is a small free list of []Mod backing arrays. The checkpoint
// path takes short-lived copies of every delta queue; recycling them
// makes steady-state checkpointing allocation-free instead of producing
// one garbage slice per queue per checkpoint.
type modPool struct {
	free [][]Mod
}

// get returns a zero-length slice with capacity at least n, reusing a
// freed array when one is large enough.
func (p *modPool) get(n int) []Mod {
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			s := p.free[i]
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			return s
		}
	}
	if n == 0 {
		return nil
	}
	return make([]Mod, 0, n)
}

// put returns a slice's backing array to the free list.
func (p *modPool) put(s []Mod) {
	if cap(s) == 0 {
		return
	}
	p.free = append(p.free, s[:0])
}

// DefaultChainDepth is the default maximum number of delta segments a
// CheckpointChain accumulates before rolling over to a fresh base.
const DefaultChainDepth = 4

// ChainStore mirrors a chain's segment writes to a durable backend (see
// internal/durable). PutBase receives every base segment — the first
// checkpoint and each rollover — which resets the chain to that one
// segment covering WAL position lsn; PutDelta receives every appended
// delta segment with its FromLSN→LSN link. Calls arrive in write order
// on the broker's serial checkpoint path; a store error aborts the
// checkpoint that triggered it and leaves the chain as it was.
type ChainStore interface {
	PutBase(seg []byte, lsn uint64) error
	PutDelta(seg []byte, fromLSN, lsn uint64) error
}

// CheckpointChain owns a maintainer's recovery point: one base segment
// plus the delta segments written since. It is the unit the broker
// stores per subscription and hands to Recover after a crash. A chain is
// not safe for concurrent use; the broker serializes access under its
// own lock, like the maintainer itself.
type CheckpointChain struct {
	base   []byte
	deltas [][]byte
	tipLSN uint64
	// maxDepth is the rollover trigger: a checkpoint taken while the
	// chain holds maxDepth delta segments writes a fresh base instead of
	// another delta. 0 writes a base every time — full checkpointing.
	maxDepth int

	store ChainStore
	obs   *Metrics
}

// NewCheckpointChain returns an empty chain rolling over after maxDepth
// delta segments; maxDepth < 0 selects DefaultChainDepth.
func NewCheckpointChain(maxDepth int) *CheckpointChain {
	if maxDepth < 0 {
		maxDepth = DefaultChainDepth
	}
	return &CheckpointChain{maxDepth: maxDepth}
}

// RestoreChain rebuilds a chain from segments recovered off a durable
// backend: the base, the delta segments in chain order, and the WAL
// position the last segment covers through. The caller attests the
// segments form a valid FromLSN→LSN chain (recovery re-validates them
// when it folds the chain); maxDepth < 0 selects DefaultChainDepth.
func RestoreChain(base []byte, deltas [][]byte, tipLSN uint64, maxDepth int) *CheckpointChain {
	c := NewCheckpointChain(maxDepth)
	c.base = base
	c.deltas = deltas
	c.tipLSN = tipLSN
	return c
}

// SetMetrics attaches an instrumentation bundle observing rollovers and
// chain depth; nil detaches.
func (c *CheckpointChain) SetMetrics(ms *Metrics) { c.obs = ms }

// SetStore attaches a durable mirror receiving every base and delta
// segment the chain writes from now on; nil detaches. Attach before the
// first Checkpoint (or right after RestoreChain, whose adopted segments
// the store already holds) — existing segments are not replayed into it.
func (c *CheckpointChain) SetStore(st ChainStore) { c.store = st }

// SetMaxDepth changes the rollover trigger; it takes effect at the next
// Checkpoint. n < 0 selects DefaultChainDepth.
func (c *CheckpointChain) SetMaxDepth(n int) {
	if n < 0 {
		n = DefaultChainDepth
	}
	c.maxDepth = n
}

// TipLSN returns the WAL position the chain covers through: everything
// at or below it may be truncated from the WAL.
func (c *CheckpointChain) TipLSN() uint64 { return c.tipLSN }

// Depth returns the current number of delta segments.
func (c *CheckpointChain) Depth() int { return len(c.deltas) }

// Checkpoint writes the maintainer's next segment into the chain: a
// fresh base when the chain is empty or already holds maxDepth deltas,
// an incremental delta otherwise. The segment is encoded and handed to
// the store first; only once the store accepts it does the chain adopt
// it and the maintainer's dirty-key set clear, so a failed checkpoint
// leaves the chain and the maintainer as they were. On success
// the chain's tip covers the maintainer's current WAL position, so the
// caller may truncate the WAL through TipLSN.
func (c *CheckpointChain) Checkpoint(m *Maintainer) error {
	lsn := uint64(0)
	if w := m.WAL(); w != nil {
		lsn = w.LastLSN()
	}
	full := c.base == nil || len(c.deltas) >= c.maxDepth
	seg, err := m.encodeSegment(full, c.tipLSN, lsn)
	if err != nil {
		return err
	}
	if full {
		if c.store != nil {
			if err := c.store.PutBase(seg, lsn); err != nil {
				return fmt.Errorf("ivm: chain store base: %w", err)
			}
		}
		if c.base != nil {
			c.obs.observeRollover()
		}
		c.base, c.deltas = seg, nil
	} else {
		if c.store != nil {
			if err := c.store.PutDelta(seg, c.tipLSN, lsn); err != nil {
				return fmt.Errorf("ivm: chain store delta: %w", err)
			}
		}
		c.deltas = append(c.deltas, seg)
	}
	c.tipLSN = lsn
	m.clearDirty()
	if c.obs != nil {
		c.obs.CheckpointChainDepth.Set(float64(len(c.deltas)))
	}
	return nil
}

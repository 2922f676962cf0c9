package ivm

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"abivm/internal/storage"
)

// Recover rebuilds a crashed maintainer from its checkpoint chain and
// the write-ahead log: fold the base and delta segments into replica
// state and queues, recompute the view content from the replicas, then
// redo the WAL suffix past the chain's tip — arrivals re-enter the
// queues (their live-table effects already happened before the crash)
// and drains re-execute, so the recovered maintainer matches the crashed
// one exactly: same replicas, same queues, same view. The WAL is
// attached to the returned maintainer; replayed work is not re-logged.
//
// Every segment must carry the durability namespace ns (see
// Maintainer.SetNamespace; "" for an un-namespaced maintainer), or
// recovery fails before any state is rebuilt — a sharded broker relies
// on this to restore only its own subscriptions' recovery points. A
// non-nil ms counts the recovery, observes the replayed WAL suffix
// length, and stays attached to the recovered maintainer so its later
// drains report to the same registry.
func Recover(live *storage.DB, query, ns string, chain *CheckpointChain, wal *WAL, ms *Metrics) (*Maintainer, error) {
	if chain == nil || chain.base == nil {
		return nil, fmt.Errorf("ivm: recovering from a checkpoint chain with no base segment")
	}
	var dto checkpointDTO
	replica, err := foldChainInto(&dto, chain.base, chain.deltas, ns)
	if err != nil {
		return nil, err
	}
	m, err := newSkeleton(live, query)
	if err != nil {
		return nil, err
	}
	m.replica = replica
	m.stats = replica.Stats()
	m.view.SetStats(m.stats)
	for _, alias := range m.aliases {
		if _, err := replica.Table(m.tables[alias]); err != nil {
			return nil, fmt.Errorf("ivm: checkpoint is missing replica of %q: %w", alias, err)
		}
	}
	// The view content is the delta query over the replicas — exactly the
	// state the checkpoint captured.
	if err := m.initialize(); err != nil {
		return nil, fmt.Errorf("ivm: recomputing view from checkpoint: %w", err)
	}
	// Restore queues in sorted alias order so a checkpoint with several
	// unknown aliases always fails on the same one.
	aliases := make([]string, 0, len(dto.Queues))
	for alias := range dto.Queues {
		aliases = append(aliases, alias)
	}
	sort.Strings(aliases)
	for _, alias := range aliases {
		if _, ok := m.tables[alias]; !ok {
			return nil, fmt.Errorf("ivm: checkpoint queue for unknown alias %q", alias)
		}
		m.deltas[alias] = append([]Mod(nil), dto.Queues[alias]...)
	}
	// Redo the log suffix through the zero-copy iterator — recovery
	// reads the records in place instead of copying the whole suffix.
	// The WAL (and injector) stay detached during replay: recovery must
	// not re-log records or pick up new faults.
	replayed := 0
	if wal != nil {
		if err := wal.Replay(dto.LSN, func(rec WALRecord) error {
			replayed++
			switch rec.Kind {
			case WALArrival:
				if _, ok := m.tables[rec.Mod.Alias]; !ok {
					return fmt.Errorf("ivm: wal arrival for unknown alias %q", rec.Mod.Alias)
				}
				m.deltas[rec.Mod.Alias] = append(m.deltas[rec.Mod.Alias], rec.Mod)
				return nil
			case WALDrain:
				if err := m.ProcessBatch(rec.Alias, rec.K); err != nil {
					return fmt.Errorf("ivm: replaying drain lsn=%d %s/%d: %w", rec.LSN, rec.Alias, rec.K, err)
				}
				return nil
			default:
				return fmt.Errorf("ivm: unknown wal record kind %d at lsn %d", rec.Kind, rec.LSN)
			}
		}); err != nil {
			return nil, err
		}
	}
	m.wal = wal
	m.obs = ms
	m.ns = dto.Namespace
	ms.ObserveRecovery(replayed)
	// Replay work is recovery overhead, not maintenance cost.
	*m.stats = storage.Stats{}
	return m, nil
}

// foldChainInto decodes a base segment into dto and folds the delta
// segments on top: the returned replica absorbs each segment's row
// delta, dto.Queues is replaced by each segment's queue snapshot, and
// dto.LSN advances to the last segment's position. Every segment must
// belong to namespace ns, and every continuity violation — a missing,
// reordered, or foreign segment — fails here with a diagnosis naming
// the segment.
func foldChainInto(dto *checkpointDTO, base []byte, deltas [][]byte, ns string) (*storage.DB, error) {
	if err := gob.NewDecoder(bytes.NewReader(base)).Decode(dto); err != nil {
		return nil, fmt.Errorf("ivm: decoding checkpoint: %w", err)
	}
	if dto.Version != checkpointVersion {
		return nil, fmt.Errorf("ivm: checkpoint version %d, want %d", dto.Version, checkpointVersion)
	}
	if dto.Namespace != ns {
		return nil, fmt.Errorf("ivm: checkpoint namespace %q, want %q", dto.Namespace, ns)
	}
	replica, err := storage.ReadSnapshot(bytes.NewReader(dto.Replica))
	if err != nil {
		return nil, fmt.Errorf("ivm: checkpoint replica: %w", err)
	}
	for i, seg := range deltas {
		var d deltaDTO
		if err := gob.NewDecoder(bytes.NewReader(seg)).Decode(&d); err != nil {
			return nil, fmt.Errorf("ivm: decoding delta segment %d: %w", i, err)
		}
		if d.Version != deltaCheckpointVersion {
			return nil, fmt.Errorf("ivm: delta segment %d version %d, want %d", i, d.Version, deltaCheckpointVersion)
		}
		if d.Namespace != ns {
			return nil, fmt.Errorf("ivm: delta segment %d namespace %q, want %q", i, d.Namespace, ns)
		}
		if d.FromLSN != dto.LSN {
			return nil, fmt.Errorf("ivm: delta chain gap at segment %d: extends lsn %d but chain covers %d (truncated or reordered chain)", i, d.FromLSN, dto.LSN)
		}
		if err := storage.ApplySnapshotDelta(replica, bytes.NewReader(d.Delta)); err != nil {
			return nil, fmt.Errorf("ivm: applying delta segment %d: %w", i, err)
		}
		dto.Queues = d.Queues
		dto.LSN = d.LSN
	}
	return replica, nil
}

package ivm

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"abivm/internal/obs"
	"abivm/internal/storage"
)

// chainFixture builds a maintainer with a WAL and a checkpoint chain,
// runs a scripted workload that interleaves arrivals, drains, and chain
// checkpoints, and returns everything for inspection. The script is
// deterministic, so two fixtures are byte-for-byte interchangeable.
func chainFixture(t *testing.T, maxDepth int) (*storage.DB, *Maintainer, *WAL, *CheckpointChain) {
	t.Helper()
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(maxDepth)
	if err := chain.Checkpoint(m); err != nil { // base segment
		t.Fatal(err)
	}

	applyN(t, m, 100, 6)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil { // delta 1
		t.Fatal(err)
	}

	// A delete and an update make the second delta carry all three
	// mutation shapes.
	if err := m.Apply(Delete("PS", storage.I(100))); err != nil {
		t.Fatal(err)
	}
	if err := m.Apply(Update("S", []storage.Value{storage.I(0)},
		storage.Row{storage.I(0), storage.S("S2"), storage.I(1)})); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("PS", 4); err != nil {
		t.Fatal(err)
	}
	if err := m.ProcessBatch("S", 1); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil { // delta 2
		t.Fatal(err)
	}

	// Work past the chain tip, so recovery also replays a WAL suffix.
	applyN(t, m, 200, 3)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	return db, m, wal, chain
}

func TestChainCheckpointRecoverRoundTrip(t *testing.T) {
	db, m, wal, chain := chainFixture(t, DefaultChainDepth)
	if chain.Depth() != 2 {
		t.Fatalf("chain depth = %d, want 2", chain.Depth())
	}

	wantPending := pendingKey(m)
	wantView := rowsKey(m.Result())

	rec, err := Recover(db, paperView, "", chain, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := pendingKey(rec); got != wantPending {
		t.Errorf("recovered pending %s, want %s", got, wantPending)
	}
	if got := rowsKey(rec.Result()); got != wantView {
		t.Errorf("recovered view %s, want %s", got, wantView)
	}
	// The recovered maintainer keeps working and converges to the same
	// ground truth as the original.
	assertConsistent(t, rec)
	assertConsistent(t, m)
	if rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovered and original maintainers diverged after refresh")
	}
}

func TestChainRecoveryMatchesFullCheckpointRecovery(t *testing.T) {
	// The same workload driven at several chain depths: depth 0 writes a
	// full base at every checkpoint, depth 1 rolls over on its second
	// checkpoint, and a depth-0 chain checkpointed once more covers the
	// WAL through this instant instead of the chain tip. Every recovery
	// must produce the maintainer the incremental chain recovers.
	db, _, wal, chain := chainFixture(t, DefaultChainDepth)
	want, err := Recover(db, paperView, "", chain, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		depth int
		now   bool
	}{
		{"depth 0", 0, false},
		{"rolled-over depth 1", 1, false},
		{"depth 0 at this instant", 0, true},
	} {
		db2, m2, wal2, chain2 := chainFixture(t, tc.depth)
		if tc.now {
			if err := chain2.Checkpoint(m2); err != nil {
				t.Fatal(err)
			}
		} else if chain2.TipLSN() != chain.TipLSN() {
			t.Fatalf("%s: tip %d, incremental chain tip %d", tc.name, chain2.TipLSN(), chain.TipLSN())
		}
		if chain2.Depth() != 0 {
			t.Fatalf("%s: depth %d, want a single base", tc.name, chain2.Depth())
		}
		got, err := Recover(db2, paperView, "", chain2, wal2, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if pendingKey(got) != pendingKey(want) {
			t.Errorf("%s: pending %s, incremental chain %s", tc.name, pendingKey(got), pendingKey(want))
		}
		if rowsKey(got.Result()) != rowsKey(want.Result()) {
			t.Errorf("%s: recovered view diverged from incremental-chain recovery", tc.name)
		}
	}
}

func TestChainRollsOverAtMaxDepth(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	ms := NewMetrics(obs.NewRegistry())
	m.SetMetrics(ms)
	chain := NewCheckpointChain(2)
	chain.SetMetrics(ms)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	depths := []int{1, 2, 0, 1} // the third checkpoint finds 2 deltas and rolls over
	for i, want := range depths {
		applyN(t, m, 100+10*i, 2)
		if err := m.ProcessBatch("PS", 2); err != nil {
			t.Fatal(err)
		}
		if err := chain.Checkpoint(m); err != nil {
			t.Fatal(err)
		}
		if chain.Depth() != want {
			t.Fatalf("after checkpoint %d: depth %d, want %d", i+1, chain.Depth(), want)
		}
	}
	// Two bases (the first and the rollover), three deltas, one rollover.
	if got := ms.Checkpoints.Value(); got != 2 {
		t.Errorf("full checkpoints = %d, want 2", got)
	}
	if got := ms.CheckpointDeltas.Value(); got != 3 {
		t.Errorf("delta checkpoints = %d, want 3", got)
	}
	if got := ms.CheckpointCompactions.Value(); got != 1 {
		t.Errorf("rollovers = %d, want 1", got)
	}
	rec, err := Recover(db, paperView, "", chain, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovery after rollover diverged")
	}
}

func TestChainDepthZeroIsFullCheckpointing(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(0)
	for i := 0; i < 3; i++ {
		applyN(t, m, 100+10*i, 2)
		if err := m.ProcessBatch("PS", 1); err != nil {
			t.Fatal(err)
		}
		if err := chain.Checkpoint(m); err != nil {
			t.Fatal(err)
		}
		if chain.Depth() != 0 {
			t.Fatalf("depth-0 chain retained %d deltas", chain.Depth())
		}
		wal.TruncateThrough(chain.TipLSN())
	}
	rec, err := Recover(db, paperView, "", chain, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("depth-0 chain recovery diverged")
	}
}

func TestChainAdoptsV1FullCheckpointAsBase(t *testing.T) {
	// A base segment (the v1 full-checkpoint format) restored from
	// storage on its own is adopted as a chain base, and delta segments
	// written afterwards extend it.
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	applyN(t, m, 100, 4)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	full := fullCheckpoint(t, m)
	chain := RestoreChain(full.base, nil, full.TipLSN(), DefaultChainDepth)

	applyN(t, m, 200, 3)
	if err := m.ProcessBatch("PS", 3); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if chain.Depth() != 1 {
		t.Fatalf("depth = %d, want 1", chain.Depth())
	}
	rec, err := Recover(db, paperView, "", chain, wal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
		t.Error("recovery from adopted v1 base diverged")
	}
}

func TestChainRejectsTruncatedChain(t *testing.T) {
	db, _, wal, chain := chainFixture(t, DefaultChainDepth)

	// Dropping the first delta leaves a FromLSN gap.
	whole := chain.deltas
	chain.deltas = whole[1:]
	_, err := Recover(db, paperView, "", chain, wal, nil)
	if err == nil || !strings.Contains(err.Error(), "delta chain gap") {
		t.Errorf("truncated chain error = %v, want a delta-chain-gap diagnosis", err)
	}

	// Reordered segments are diagnosed the same way.
	chain.deltas = [][]byte{whole[1], whole[0]}
	if _, err := Recover(db, paperView, "", chain, wal, nil); err == nil || !strings.Contains(err.Error(), "delta chain gap") {
		t.Errorf("reordered chain error = %v", err)
	}

	// A corrupt segment fails decoding with a segment-naming error.
	chain.deltas = [][]byte{whole[0], []byte("garbage segment")}
	if _, err := Recover(db, paperView, "", chain, wal, nil); err == nil || !strings.Contains(err.Error(), "delta segment 1") {
		t.Errorf("corrupt segment error = %v", err)
	}

	// A chain with no base is rejected outright.
	empty := NewCheckpointChain(DefaultChainDepth)
	if _, err := Recover(db, paperView, "", empty, wal, nil); err == nil {
		t.Error("recovery from an empty chain succeeded")
	}
}

func TestChainValidatesNamespace(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	m.SetNamespace("shard1/east")
	chain := NewCheckpointChain(DefaultChainDepth)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 2)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db, paperView, "shard2/east", chain, wal, nil); err == nil {
		t.Error("foreign-namespace chain accepted")
	}
	if _, err := Recover(db, paperView, "shard1/east", chain, wal, nil); err != nil {
		t.Errorf("owner recovery failed: %v", err)
	}
	// A delta segment from another namespace spliced behind the owner's
	// base is refused by segment.
	m.SetNamespace("shard2/east")
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(db, paperView, "shard1/east", chain, wal, nil); err == nil || !strings.Contains(err.Error(), "delta segment 1 namespace") {
		t.Errorf("foreign delta segment: err = %v", err)
	}
}

func TestCheckpointDeltaIsSmallerThanFull(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	chain := NewCheckpointChain(DefaultChainDepth)
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	applyN(t, m, 100, 2)
	if err := m.ProcessBatch("PS", 2); err != nil {
		t.Fatal(err)
	}
	if err := chain.Checkpoint(m); err != nil {
		t.Fatal(err)
	}
	base, delta := len(chain.base), len(chain.deltas[0])
	if delta >= base {
		t.Errorf("delta segment (%d bytes) not smaller than base (%d bytes)", delta, base)
	}
}

// flakyStore is a ChainStore that keeps the segments it accepts, checks
// every delta's FromLSN link against the last stored position, and
// fails the next write when failNext is set.
type flakyStore struct {
	failNext bool
	base     []byte
	deltas   [][]byte
	tip      uint64
}

func (s *flakyStore) fail() error {
	if s.failNext {
		s.failNext = false
		return errors.New("injected store failure")
	}
	return nil
}

func (s *flakyStore) PutBase(seg []byte, lsn uint64) error {
	if err := s.fail(); err != nil {
		return err
	}
	s.base, s.deltas, s.tip = seg, nil, lsn
	return nil
}

func (s *flakyStore) PutDelta(seg []byte, fromLSN, lsn uint64) error {
	if err := s.fail(); err != nil {
		return err
	}
	if fromLSN != s.tip {
		return fmt.Errorf("delta extends lsn %d but the store holds through %d", fromLSN, s.tip)
	}
	s.deltas = append(s.deltas, seg)
	s.tip = lsn
	return nil
}

// TestChainCommitsOnlyAfterStoreAccepts: a checkpoint whose segment the
// store rejects changes nothing — not the chain's tip or depth, not the
// maintainer's dirty keys — so the next checkpoint links to the last
// stored position and recovery from the stored segments is exact. This
// holds for a delta and for a rollover base alike.
func TestChainCommitsOnlyAfterStoreAccepts(t *testing.T) {
	db := liveDB(t)
	m, err := New(db, paperView)
	if err != nil {
		t.Fatal(err)
	}
	wal := NewWAL()
	m.AttachWAL(wal)
	st := &flakyStore{}
	chain := NewCheckpointChain(2)
	chain.SetStore(st)
	// checkpoint takes a checkpoint that must succeed, truncates the WAL
	// like the broker does, and checks that recovery from what the store
	// holds reproduces m exactly — replicas included, so a delta that
	// lost rows cannot hide behind the WAL.
	checkpoint := func(label string) {
		t.Helper()
		if err := chain.Checkpoint(m); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if st.tip != chain.TipLSN() {
			t.Fatalf("%s: store holds through %d, chain tip %d", label, st.tip, chain.TipLSN())
		}
		if err := wal.TruncateThrough(chain.TipLSN()); err != nil {
			t.Fatal(err)
		}
		rec, err := Recover(db, paperView, "", RestoreChain(st.base, st.deltas, st.tip, 2), wal, nil)
		if err != nil {
			t.Fatalf("%s: recovering from the store: %v", label, err)
		}
		if pendingKey(rec) != pendingKey(m) || rowsKey(rec.Result()) != rowsKey(m.Result()) {
			t.Fatalf("%s: recovery from the stored segments diverged from the maintainer", label)
		}
		if replicaKey(t, rec) != replicaKey(t, m) {
			t.Fatalf("%s: recovered replicas diverged from the maintainer's", label)
		}
	}
	checkpoint("base")
	for i := 0; i < 4; i++ {
		applyN(t, m, 100+10*i, 3)
		if err := m.ProcessBatch("PS", 2); err != nil {
			t.Fatal(err)
		}
		// The second delta's write fails, then the rollover's that finds
		// the chain at depth 2.
		if i == 1 || i == 2 {
			tip, depth := chain.TipLSN(), chain.Depth()
			st.failNext = true
			if err := chain.Checkpoint(m); err == nil {
				t.Fatalf("checkpoint %d: store failure did not surface", i+1)
			}
			if chain.TipLSN() != tip || chain.Depth() != depth {
				t.Fatalf("checkpoint %d: failed store write moved the chain to tip %d depth %d, was %d/%d",
					i+1, chain.TipLSN(), chain.Depth(), tip, depth)
			}
			// More drained rows ride on the retry.
			applyN(t, m, 500+10*i, 2)
			if err := m.ProcessBatch("PS", 3); err != nil {
				t.Fatal(err)
			}
		}
		checkpoint(fmt.Sprintf("checkpoint %d", i+1))
	}
}

// replicaKey renders the rows of every replica table canonically.
func replicaKey(t *testing.T, m *Maintainer) string {
	t.Helper()
	var b strings.Builder
	for _, alias := range m.Aliases() {
		tbl, err := m.replica.Table(m.TableOf(alias))
		if err != nil {
			t.Fatal(err)
		}
		var rows []storage.Row
		tbl.Scan(func(r storage.Row) bool {
			rows = append(rows, r)
			return true
		})
		fmt.Fprintf(&b, "%s=%s;", alias, rowsKey(rows))
	}
	return b.String()
}

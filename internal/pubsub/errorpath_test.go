package pubsub

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"abivm/internal/core"
	"abivm/internal/ivm"
	"abivm/internal/policy"
	"abivm/internal/storage"
)

func TestPublishToNonexistentTable(t *testing.T) {
	b := NewBroker(salesDB(t))
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: 30,
	}); err != nil {
		t.Fatal(err)
	}
	err := b.Publish("ghost", ivm.Insert("", storage.Row{storage.I(1)}))
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("publish to missing table: err = %v, want error naming the table", err)
	}
	// Unknown table names must not accumulate in the routing cache.
	if len(b.routes) != 0 {
		t.Errorf("routing cache holds %d entries after a publish to a missing table", len(b.routes))
	}
	// The failed publish left the broker usable: a real publish still
	// routes and the step closes cleanly.
	if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(100), storage.I(0), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := b.EndStep(); err != nil {
		t.Fatal(err)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if h.Degraded {
		t.Errorf("failed publish degraded the subscription: %+v", h)
	}
}

func TestSubscribeDuplicateLeavesBrokerIntact(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	cfg := Subscription{Name: "east", Query: eastQuery, Condition: Every(5), Model: model2(t), QoS: 30}
	if err := b.Subscribe(cfg); err != nil {
		t.Fatal(err)
	}
	if err := b.Subscribe(cfg); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate subscribe: err = %v", err)
	}
	// Exactly one registration: a publish routes once (live table grows by
	// one row, pending queue holds one delta) and EndStep emits at most
	// one notification stream for the name.
	if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(200), storage.I(0), storage.F(2)})); err != nil {
		t.Fatal(err)
	}
	if got := db.MustTable("sales").Len(); got != 41 {
		t.Fatalf("sales rows = %d, want 41 (publish must apply exactly once)", got)
	}
	h, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{1, 0}; !core.Vector(h.Pending).Equal(core.Vector(want)) {
		t.Fatalf("pending = %v, want %v", h.Pending, want)
	}
}

// rogue is a policy that violates the action contract on demand.
type rogue struct {
	n   int
	act core.Vector
}

func (r *rogue) Name() string { return "rogue" }
func (r *rogue) Reset(n int)  { r.n = n }
func (r *rogue) Act(step int, arrived, pending core.Vector, must bool) core.Vector {
	if r.act != nil {
		return r.act.Clone()
	}
	return core.NewVector(r.n)
}

var _ policy.Policy = (*rogue)(nil)

func TestEndStepAfterFailedStepLeavesStateUnchanged(t *testing.T) {
	db := salesDB(t)
	b := NewBroker(db)
	pol := &rogue{}
	if err := b.Subscribe(Subscription{
		Name: "east", Query: eastQuery, Condition: Every(3), Model: model2(t), QoS: 30, Policy: pol,
	}); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if err := b.Publish("sales", ivm.Insert("", storage.Row{storage.I(300 + i), storage.I(0), storage.F(1)})); err != nil {
			t.Fatal(err)
		}
	}
	before, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	rowsBefore, err := b.Result("east")
	if err != nil {
		t.Fatal(err)
	}

	// The policy over-drains: asks for more than is pending.
	pol.act = core.Vector{99, 0}
	if _, err := b.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("EndStep with rogue policy: err = %v", err)
	}
	// Negative actions are rejected too.
	pol.act = core.Vector{-1, 0}
	if _, err := b.EndStep(); err == nil || !strings.Contains(err.Error(), "out-of-range") {
		t.Fatalf("EndStep with negative action: err = %v", err)
	}

	// The failed steps changed nothing: pending deltas, WAL length, and
	// view contents are exactly as before, not half-applied.
	after, err := b.Health("east")
	if err != nil {
		t.Fatal(err)
	}
	if !core.Vector(after.Pending).Equal(core.Vector(before.Pending)) {
		t.Errorf("pending changed across failed step: %v -> %v", before.Pending, after.Pending)
	}
	if after.WALRecords != before.WALRecords {
		t.Errorf("WAL grew across failed step: %d -> %d", before.WALRecords, after.WALRecords)
	}
	rowsAfter, err := b.Result("east")
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(rowsAfter) != rowsText(rowsBefore) {
		t.Errorf("view changed across failed step: %v -> %v", rowsBefore, rowsAfter)
	}
	if cost, err := b.TotalCost("east"); err != nil || cost != 0 {
		t.Errorf("failed steps accrued cost %g (err %v), want 0", cost, err)
	}

	// With the policy behaving again the same broker finishes the step
	// and delivers a correct notification.
	pol.act = nil
	var got []Notification
	for len(got) == 0 {
		ns, err := b.EndStep()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, ns...)
	}
	check, err := ivm.New(cloneDB(t, db), eastQuery)
	if err != nil {
		t.Fatal(err)
	}
	if rowsText(got[0].Rows) != rowsText(check.Result()) {
		t.Errorf("post-recovery notification %v, ground truth %v", got[0].Rows, check.Result())
	}
}

// TestPublishAtomicityAcrossRuntimes: on every broker × engine cell, a
// publish the live table rejects — a duplicate-key insert, a
// key-changing update of a watched table, a delete of a missing key —
// returns an error and leaves no trace. The live tables, every
// subscription's pending vector and WAL length, and the next step's
// notifications must match a twin broker that never saw the failed
// publishes.
func TestPublishAtomicityAcrossRuntimes(t *testing.T) {
	spec := DefaultWorkloadSpec()
	spec.NotifyEvery = 1
	const fresh, missing = 100000, 100001
	failing := []struct {
		name  string
		table string
		mod   ivm.Mod
	}{
		{"duplicate insert", "sales", ivm.Insert("", storage.Row{storage.I(fresh), storage.I(0), storage.F(3)})},
		{"key-changing update", "stations", ivm.Update("", []storage.Value{storage.I(1)}, storage.Row{storage.I(999), storage.S("EAST")})},
		{"missing delete", "sales", ivm.Delete("", storage.I(missing))},
	}
	for _, shards := range []int{0, 2} {
		for _, shared := range []bool{false, true} {
			shards, shared := shards, shared
			t.Run(fmt.Sprintf("shards=%d/shared=%v", shards, shared), func(t *testing.T) {
				open := func() (*DemoWorkload, *storage.DB) {
					var db *storage.DB
					w, err := NewDemoWorkload(DemoConfig{
						Seed: 4, Spec: spec, Shards: shards, Shared: shared,
						Subscribe: func(d *storage.DB, rt Runtime) error {
							db = d
							return subscribeDemo(rt, spec)
						},
					})
					if err != nil {
						t.Fatal(err)
					}
					return w, db
				}
				got, gotDB := open()
				want, wantDB := open()
				for _, w := range []*DemoWorkload{got, want} {
					for i := 0; i < 6; i++ {
						if _, err := w.Step(); err != nil {
							t.Fatal(err)
						}
					}
					// A routed, not yet drained modification the failed
					// publishes must not disturb.
					if err := w.Broker.Publish("sales", failing[0].mod); err != nil {
						t.Fatal(err)
					}
				}
				for _, f := range failing {
					if err := got.Broker.Publish(f.table, f.mod); err == nil {
						t.Fatalf("%s: publish succeeded", f.name)
					}
					if g, w := brokerState(t, got.Broker, gotDB), brokerState(t, want.Broker, wantDB); g != w {
						t.Fatalf("%s left a trace:\n%s", f.name, firstDiff(w, g))
					}
				}
				next := func(w *DemoWorkload) string {
					ns, err := w.Broker.EndStep()
					if err != nil {
						t.Fatal(err)
					}
					if len(ns) == 0 {
						t.Fatal("no notifications — vacuous comparison")
					}
					var out strings.Builder
					renderNotes(&out, ns)
					return out.String()
				}
				if g, w := next(got), next(want); g != w {
					t.Fatalf("next step's notifications diverged:\n%s", firstDiff(w, g))
				}
			})
		}
	}
}

// brokerState renders the live tables and every subscription's pending
// vector and WAL length.
func brokerState(t *testing.T, rt Runtime, db *storage.DB) string {
	t.Helper()
	var out strings.Builder
	for _, name := range []string{"sales", "stations"} {
		tbl, err := db.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		tbl.Scan(func(r storage.Row) bool {
			rows = append(rows, storage.EncodeKey(r...))
			return true
		})
		sort.Strings(rows)
		fmt.Fprintf(&out, "%s: %s\n", name, strings.Join(rows, "|"))
	}
	for _, name := range rt.Subscriptions() {
		h, err := rt.Health(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "%s: pending=%v wal=%d\n", name, h.Pending, h.WALRecords)
	}
	return out.String()
}

package pubsub

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// runScript executes a scripted workload on the serial broker (shards
// == 0) or a ShardedBroker with the given shard count and renders every
// notification plus the final contents and costs — serial transcripts
// are the reference the sharded runs are compared against byte for
// byte. injectors supplies per-shard injectors (nil = fault-free; the
// serial broker takes injectors(0)).
func runScript(t *testing.T, script [][]chaosEvent, spec WorkloadSpec, seed int64, shards int, injectors func(int) fault.Injector) string {
	t.Helper()
	w, err := NewDemoWorkload(DemoConfig{
		Seed: seed, Spec: spec, Shards: shards, Injectors: injectors,
		Subscribe: func(_ *storage.DB, rt Runtime) error {
			rt.setSleep(func(time.Duration) {})
			rt.SetCheckpointEvery(5)
			return subscribeDemo(rt, spec)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	for t2, evs := range script {
		for _, ev := range evs {
			if err := w.Broker.Publish(ev.table, ev.mod); err != nil {
				t.Fatalf("step %d: publish: %v", t2, err)
			}
		}
		ns, err := w.Broker.EndStep()
		if err != nil {
			t.Fatalf("step %d: %v", t2, err)
		}
		renderNotes(&out, ns)
	}
	for _, name := range w.Broker.Subscriptions() {
		rows, err := w.Broker.Result(name)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := w.Broker.TotalCost(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "final %s: cost=%.9g rows=%s\n", name, cost, renderRows(rows))
	}
	return out.String()
}

func renderNotes(out *strings.Builder, ns []Notification) {
	for _, n := range ns {
		fmt.Fprintf(out, "step=%d sub=%s degraded=%v behind=%d over=%.9g cost=%.9g rows=%s\n",
			n.Step, n.Subscription, n.Degraded, n.StepsBehind, n.CostOvershoot,
			n.RefreshCost, renderRows(n.Rows))
	}
}

// TestSingleShardMatchesSerialBroker is the tentpole's core invariant:
// with one shard, the sharded runtime's observable output —
// notifications, final contents, accumulated costs — is byte-identical
// to the serial broker on the same workload, fault-free.
func TestSingleShardMatchesSerialBroker(t *testing.T) {
	const seed, steps = 11, 60
	spec := DefaultWorkloadSpec()
	script := chaosScript(seed, steps, spec)
	serial := runScript(t, script, spec, seed, 0, nil)
	sharded := runScript(t, script, spec, seed, 1, nil)
	if serial != sharded {
		t.Fatalf("single-shard output diverged from serial broker:\n%s", firstDiff(serial, sharded))
	}
}

// TestSingleShardMatchesSerialBrokerUnderFaults extends the invariant to
// faulted runs: shard 0's injector and jitter seed equal the serial
// broker's, so retries, rollbacks, checkpoints, and crash recoveries
// replay identically through the sharded ingest path.
func TestSingleShardMatchesSerialBrokerUnderFaults(t *testing.T) {
	const steps = 60
	for seed := int64(1); seed <= 5; seed++ {
		spec := DefaultWorkloadSpec()
		script := chaosScript(seed, steps, spec)
		injectors := SeededShardInjectors(seed, fault.DefaultRates())
		serial := runScript(t, script, spec, seed, 0, injectors)
		sharded := runScript(t, script, spec, seed, 1, injectors)
		if serial != sharded {
			t.Fatalf("seed %d: faulted single-shard output diverged from serial broker:\n%s",
				seed, firstDiff(serial, sharded))
		}
	}
}

// TestShardCountInvariantFaultFree: without faults there is no per-shard
// randomness, so the merged output must not depend on how many shards
// the subscriptions are spread over.
func TestShardCountInvariantFaultFree(t *testing.T) {
	const seed, steps = 3, 50
	spec := ScaledWorkloadSpec(6)
	script := chaosScript(seed, steps, spec)
	var want string
	for _, shards := range []int{1, 2, 3, 4} {
		got := runScript(t, script, spec, seed, shards, nil)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("shards=%d output diverged from shards=1:\n%s", shards, firstDiff(want, got))
		}
	}
}

// TestShardedDeterminismSameSeed: a faulted sharded run is a pure
// function of (seed, shard count) — running it twice must be
// byte-identical, mid-run samples included.
func TestShardedDeterminismSameSeed(t *testing.T) {
	const seed, steps, shards = 9, 40, 3
	spec := ScaledWorkloadSpec(2 * shards)
	script := chaosScript(seed, steps, spec)
	var first string
	for run := 0; run < 2; run++ {
		cfg := ChaosConfig{Seed: seed, Shards: shards, CheckpointEvery: 5}
		v := chaosVariant{depth: 3, injectors: SeededShardInjectors(seed, fault.DefaultRates())}
		tr, fin, _, _, err := cfg.run(v, spec, script)
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = tr + fin
		} else if tr+fin != first {
			t.Fatalf("same seed+shards produced different output:\n%s", firstDiff(first, tr+fin))
		}
	}
	if !strings.Contains(first, "sample ") {
		t.Fatal("sharded transcript is missing mid-run samples")
	}
}

// TestShardWithZeroSubscriptions: more shards than subscriptions leaves
// some shards empty; they must step cleanly and report empty stats, and
// the merged output must still match a fully-loaded layout.
func TestShardWithZeroSubscriptions(t *testing.T) {
	const seed, steps = 5, 30
	spec := DefaultWorkloadSpec()
	script := chaosScript(seed, steps, spec)
	// 5 shards, 2 subscriptions: at least 3 shards stay empty.
	got := runScript(t, script, spec, seed, 5, nil)
	want := runScript(t, script, spec, seed, 1, nil)
	subs, err := demoSubscriptions(spec)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("empty shards changed the merged output:\n%s", firstDiff(want, got))
	}

	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 5})
	defer sb.Close()
	for _, sc := range subs {
		sc.Name += "-b"
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatalf("EndStep with empty shards: %v", err)
	}
	stats := sb.ShardStats()
	if len(stats) != 5 {
		t.Fatalf("ShardStats returned %d entries, want 5", len(stats))
	}
	empty := 0
	for _, st := range stats {
		if st.Subscriptions == 0 {
			if st.Weight != 0 || st.BacklogCost != 0 {
				t.Fatalf("empty shard %d has non-zero load: %+v", st.Shard, st)
			}
			empty++
		}
	}
	if empty < 3 {
		t.Fatalf("expected >= 3 empty shards, got %d", empty)
	}
}

// TestQueueFullRejection: overrunning a shard's per-step admission cap
// surfaces as a typed *RejectionError, leaves the base tables untouched,
// and clears at the next step barrier.
func TestQueueFullRejection(t *testing.T) {
	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(db, ShardOptions{Shards: 2, QueueCap: 3})
	defer sb.Close()
	subs, err := demoSubscriptions(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range subs {
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	sales, err := db.Table("sales")
	if err != nil {
		t.Fatal(err)
	}
	pub := func(key int64) error {
		return sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(key), storage.I(0), storage.F(1)}))
	}
	for i := int64(0); i < 3; i++ {
		if err := pub(100 + i); err != nil {
			t.Fatalf("publish %d within cap: %v", i, err)
		}
	}
	before := sales.Len()
	err = pub(200)
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("over-cap publish returned %v, want *RejectionError", err)
	}
	if rej.Reason != RejectQueueFull || rej.Table != "sales" || rej.Admitted != 3 {
		t.Fatalf("unexpected rejection detail: %+v", rej)
	}
	if got := sales.Len(); got != before {
		t.Fatalf("rejected publish mutated the live table: %d rows, want %d", got, before)
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	// The barrier reset the admission counter; the same publish is
	// admitted now.
	if err := pub(200); err != nil {
		t.Fatalf("publish after barrier still rejected: %v", err)
	}
}

// TestBacklogRejection: a shard whose end-of-step refresh cost exceeds
// MaxBacklogCost rejects publishes with the typed backlog reason until a
// step drains it back under the bound.
func TestBacklogRejection(t *testing.T) {
	db, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	// A bound far below one queued modification's refresh cost: the first
	// step with any pending backlog trips it.
	sb := NewShardedBroker(db, ShardOptions{Shards: 1, MaxBacklogCost: 1e-6})
	defer sb.Close()
	subs, err := demoSubscriptions(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Conditions that never fire inside the test keep the policy from
	// draining the backlog to zero.
	for _, sc := range subs {
		sc.Condition = Every(1 << 20)
		if err := sb.Subscribe(sc); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(500), storage.I(0), storage.F(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.EndStep(); err != nil {
		t.Fatal(err)
	}
	stats := sb.ShardStats()
	if stats[0].BacklogCost <= 1e-6 {
		t.Fatalf("test setup: backlog cost %.9g did not exceed the bound", stats[0].BacklogCost)
	}
	err = sb.Publish("sales", ivm.Insert("", storage.Row{storage.I(501), storage.I(0), storage.F(1)}))
	var rej *RejectionError
	if !errors.As(err, &rej) {
		t.Fatalf("over-backlog publish returned %v, want *RejectionError", err)
	}
	if rej.Reason != RejectBacklog {
		t.Fatalf("rejection reason %v, want backlog", rej.Reason)
	}
	if rej.Error() == "" || !strings.Contains(rej.Error(), "backlog") {
		t.Fatalf("unhelpful rejection message %q", rej.Error())
	}
}

// TestMidRunSubscribeMatchesSerial: subscribing mid-step, after some of
// the step's modifications were already published, must not make the
// new subscription's initial snapshot double-count them.
func TestMidRunSubscribeMatchesSerial(t *testing.T) {
	const seed, steps, joinAt = 21, 40, 17
	script := chaosScript(seed, steps, DefaultWorkloadSpec())

	run := func(rt Runtime) string {
		subs, err := demoSubscriptions(DefaultWorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		if err := rt.Subscribe(subs[0]); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		for t2, evs := range script {
			for _, ev := range evs {
				if err := rt.Publish(ev.table, ev.mod); err != nil {
					t.Fatalf("step %d: %v", t2, err)
				}
				// Join mid-step, with this step's modifications still in
				// flight toward the shard.
				if t2 == joinAt {
					if err := rt.Subscribe(subs[1]); err != nil {
						t.Fatal(err)
					}
				}
			}
			ns, err := rt.EndStep()
			if err != nil {
				t.Fatalf("step %d: %v", t2, err)
			}
			renderNotes(&out, ns)
		}
		for _, sc := range subs {
			rows, err := rt.Result(sc.Name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "final %s: %s\n", sc.Name, renderRows(rows))
		}
		return out.String()
	}

	dbA, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	serial := run(NewBroker(dbA))

	dbB, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	sb := NewShardedBroker(dbB, ShardOptions{Shards: 2})
	defer sb.Close()
	sharded := run(sb)

	if serial != sharded {
		t.Fatalf("mid-run subscribe diverged from serial broker:\n%s", firstDiff(serial, sharded))
	}
}

// TestShardedBrokerUsableAfterClose: Close releases nothing, so a
// publish and a step after it must complete and reach the views exactly
// as they would on the serial broker.
func TestShardedBrokerUsableAfterClose(t *testing.T) {
	run := func(rt Runtime) string {
		subs, err := demoSubscriptions(DefaultWorkloadSpec())
		if err != nil {
			t.Fatal(err)
		}
		for _, sc := range subs {
			sc.Condition = Every(1)
			if err := rt.Subscribe(sc); err != nil {
				t.Fatal(err)
			}
		}
		if sb, ok := rt.(*ShardedBroker); ok {
			sb.Close()
		}
		results := func() string {
			var out strings.Builder
			for _, sc := range subs {
				rows, err := rt.Result(sc.Name)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%s: %s\n", sc.Name, renderRows(rows))
			}
			return out.String()
		}
		before := results()
		done := make(chan error, 1)
		go func() {
			// Every(1) first fires on step 1, so the publish lands
			// between two steps and the second refreshes both views.
			if _, err := rt.EndStep(); err != nil {
				done <- err
				return
			}
			if err := rt.Publish("sales", ivm.Insert("", storage.Row{storage.I(900), storage.I(0), storage.F(1000)})); err != nil {
				done <- err
				return
			}
			_, err := rt.EndStep()
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("steps and publish after Close did not complete")
		}
		after := results()
		if after == before {
			t.Fatalf("the views do not reflect the publish:\n%s", after)
		}
		return after
	}
	dbA, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	serial := run(NewBroker(dbA))
	dbB, err := DemoDB(DefaultWorkloadSpec())
	if err != nil {
		t.Fatal(err)
	}
	if sharded := run(NewShardedBroker(dbB, ShardOptions{Shards: 2})); sharded != serial {
		t.Fatalf("after Close the sharded views diverged from the serial broker:\n%s", firstDiff(serial, sharded))
	}
}

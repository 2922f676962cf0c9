package pubsub

import (
	"fmt"

	"abivm/internal/dataflow"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// viewEngine is the per-subscription view-runtime surface the broker
// drives: satisfied by both the classic per-view maintainer
// (ivm.Maintainer, private replicas per view) and the shared-dataflow
// handle (dataflow.ViewHandle, one operator graph for all views). The
// broker's routing, scheduling, retry, QoS, and notification
// choreography is identical across the two; only building the engine,
// the shared graph's one ingest per modification, and the recovery
// point (checkpoint chain or handle snapshot) branch.
type viewEngine interface {
	Aliases() []string
	TableOf(alias string) string
	// ApplyDeferred enqueues and WAL-logs modifications the live tables
	// already reflect.
	ApplyDeferred(mods ...ivm.Mod) error
	PendingInto(dst []int) []int
	ProcessBatch(alias string, k int) error
	Result() []storage.Row
	AttachWAL(w *ivm.WAL)
	SetNamespace(ns string)
	Namespace() string
	SetInjector(fault.Injector)
	SetMetrics(ms *ivm.Metrics)
}

// engine returns the subscription's view runtime.
func (s *sub) engine() viewEngine {
	if s.h != nil {
		return s.h
	}
	return s.m
}

// checkpoint records a new recovery point — the next segment of a
// classic view's chain, or a shared view's handle snapshot — and
// returns the WAL position it covers.
func (s *sub) checkpoint() (uint64, error) {
	if s.h != nil {
		err := s.h.Checkpoint()
		return s.h.TipLSN(), err
	}
	err := s.chain.Checkpoint(s.m)
	return s.chain.TipLSN(), err
}

// SetSharedDataflow switches the broker to the shared delta-dataflow
// runtime: subscriptions registered afterwards compile into one
// hash-consed operator graph (structurally equal sub-plans run once,
// fanning out to all their views) instead of per-view maintainers.
// Enable it before the first subscription; it cannot be combined with
// existing classic subscriptions or with disk-backed durability
// (SetStoreOpener), whose replica-snapshot checkpoints have no
// per-operator equivalent yet. Passing false returns future
// subscriptions to the classic runtime (only valid while no shared
// subscription exists).
func (b *Broker) SetSharedDataflow(on bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !on {
		if b.shared != nil && b.shared.Stats().Views > 0 {
			return fmt.Errorf("pubsub: cannot disable shared dataflow with live shared subscriptions")
		}
		b.shared = nil
		return nil
	}
	if len(b.subs) > 0 {
		return fmt.Errorf("pubsub: shared dataflow must be enabled before the first subscription")
	}
	if b.opener != nil {
		return fmt.Errorf("pubsub: shared dataflow is incompatible with a durable store opener")
	}
	if b.shared == nil {
		b.shared = dataflow.NewGraph(b.db)
	}
	return nil
}

// DataflowStats snapshots the shared operator graph's shape (zero when
// the classic runtime is active).
func (b *Broker) DataflowStats() dataflow.GraphStats {
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.shared == nil {
		return dataflow.GraphStats{}
	}
	return b.shared.Stats()
}

// Unsubscribe removes a subscription. Under the shared runtime the
// view's operator references are returned to the graph — nodes still
// referenced by other views survive, the rest are released (the
// ref-counted lifecycle the sharing tests pin down).
func (b *Broker) Unsubscribe(name string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for i, s := range b.subs {
		if s.cfg.Name != name {
			continue
		}
		if s.h != nil {
			b.shared.Release(s.h)
		}
		b.subs = append(b.subs[:i], b.subs[i+1:]...)
		b.routes = nil
		return nil
	}
	return fmt.Errorf("pubsub: no subscription %q", name)
}

// trimShared garbage-collects the shared graph below the durability
// watermark: for every table, the minimum checkpoint-covered cursor
// across the subscriptions reading it. Retained deltas and join state
// below the watermark can never be needed by any recovery again.
func (b *Broker) trimShared() {
	if b.trimWM == nil {
		b.trimWM = make(map[string]uint64)
	}
	wm := b.trimWM
	clear(wm)
	for _, s := range b.subs {
		if s.h == nil {
			continue
		}
		dc := s.h.DurableCursors()
		// Iterate via the alias list, not the cursor map, so the fold
		// order is deterministic.
		for _, alias := range s.h.Aliases() {
			t := s.h.TableOf(alias)
			c, ok := dc[t]
			if !ok {
				c = 0
			}
			if cur, seen := wm[t]; !seen || c < cur {
				wm[t] = c
			}
		}
	}
	if len(wm) > 0 {
		b.shared.Trim(wm)
	}
}

package pubsub

import (
	"sync"
	"testing"
	"time"

	"abivm/internal/fault"
	"abivm/internal/obs"
)

// TestShardedAccessorsConcurrentWithWorkload: while the sharded
// workload publishes and steps (its shards stepping concurrently at each
// barrier), another goroutine hammers every read surface — TotalCost,
// Health, Result, ShardStats, and the metrics endpoint's registry. Run
// under -race this proves the mid-run read path is properly
// synchronized.
func TestShardedAccessorsConcurrentWithWorkload(t *testing.T) {
	const seed, shards, steps = 13, 4, 60
	w, err := NewDemoWorkload(DemoConfig{
		Seed: seed, Spec: ScaledWorkloadSpec(2 * shards), Shards: shards,
		Injectors: SeededShardInjectors(seed, fault.DefaultRates()),
	})
	if err != nil {
		t.Fatal(err)
	}
	sb := w.Broker.(*ShardedBroker)
	w.Broker.setSleep(func(time.Duration) {})
	reg := obs.NewRegistry()
	tr := obs.NewTracer(obs.DefaultTraceCapacity)
	w.Broker.SetObs(reg, tr)

	names := w.Broker.Subscriptions()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, name := range names {
				if _, err := w.Broker.TotalCost(name); err != nil {
					t.Errorf("TotalCost(%s): %v", name, err)
					return
				}
				if _, err := w.Broker.Health(name); err != nil {
					t.Errorf("Health(%s): %v", name, err)
					return
				}
				if _, err := w.Broker.Result(name); err != nil {
					t.Errorf("Result(%s): %v", name, err)
					return
				}
			}
			sb.ShardStats()
			reg.Snapshot()
		}
	}()
	for i := 0; i < steps; i++ {
		if _, err := w.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	close(done)
	wg.Wait()
}

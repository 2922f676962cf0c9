package pubsub

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"abivm/internal/core"
	"abivm/internal/dataflow"
	"abivm/internal/durable"
	"abivm/internal/fault"
	"abivm/internal/ivm"
	"abivm/internal/storage"
)

// DefaultShardQueueCap bounds how many modifications one shard admits
// between step barriers.
const DefaultShardQueueCap = 1024

// RejectReason says which admission bound a rejected publish hit.
type RejectReason int

const (
	// RejectQueueFull: the shard already admitted QueueCap modifications
	// since the last step barrier.
	RejectQueueFull RejectReason = iota
	// RejectBacklog: the shard's end-of-step refresh cost Σ_i f(s_i)
	// exceeded MaxBacklogCost, so it takes no new work until a step
	// drains it back under the bound.
	RejectBacklog
)

// String names the reason for logs and metric labels.
func (r RejectReason) String() string {
	switch r {
	case RejectQueueFull:
		return "queue_full"
	case RejectBacklog:
		return "backlog"
	}
	return "unknown"
}

// RejectionError is the typed error returned by ShardedBroker.Publish
// when admission control turns a modification away. The base tables are
// untouched and no shard received the modification — a rejected publish
// is all-or-nothing, so the caller can retry it after the next step.
type RejectionError struct {
	Shard  int
	Table  string
	Reason RejectReason
	// Admitted is the shard's admission count this step (queue_full).
	Admitted int
	// Cost is the shard's end-of-step backlog cost (backlog).
	Cost float64
	// Limit is the bound that was exceeded: QueueCap or MaxBacklogCost.
	Limit float64
}

func (e *RejectionError) Error() string {
	switch e.Reason {
	case RejectQueueFull:
		return fmt.Sprintf("pubsub: shard %d rejected publish on %q: queue full (%d admitted this step, cap %g)",
			e.Shard, e.Table, e.Admitted, e.Limit)
	case RejectBacklog:
		return fmt.Sprintf("pubsub: shard %d rejected publish on %q: backlog cost %.4g over limit %.4g",
			e.Shard, e.Table, e.Cost, e.Limit)
	}
	return fmt.Sprintf("pubsub: shard %d rejected publish on %q", e.Shard, e.Table)
}

// ShardOptions configures a ShardedBroker. The zero value means one
// shard with default admission sizing and no backlog bound.
type ShardOptions struct {
	// Shards is the number of partitions; <= 0 means 1.
	Shards int
	// QueueCap bounds the modifications one shard admits between step
	// barriers; <= 0 selects DefaultShardQueueCap. The bound is checked
	// against a per-step admission counter, so whether a publish is
	// rejected depends only on the publish sequence.
	QueueCap int
	// MaxBacklogCost, when > 0, rejects publishes to a shard whose
	// refresh cost Σ_i f(s_i) measured at the last step barrier exceeds
	// the bound. The stale sample keeps admission deterministic.
	MaxBacklogCost float64
}

// shard is one partition: a full serial Broker plus the publisher-side
// state the ShardedBroker keeps for it.
type shard struct {
	id int
	b  *Broker

	// Guarded by the ShardedBroker mutex: the obs bundle, the assignment
	// load, the admission counter (reset at each barrier), and the
	// backlog cost sampled at the last barrier.
	so       *shardObs
	subs     int
	weight   float64
	admitted int
	backlog  float64
}

// ShardedBroker is the sharded broker runtime: it partitions
// subscriptions across N shards — each a full serial Broker with its own
// maintainers, WAL/checkpoint namespace, retry/degradation state, and
// fault injector — and merges their results. Publish applies each
// live-table change exactly once, then routes the deferred copies
// synchronously into the owning shards' delta queues, while admission
// control rejects publishes that would overrun a shard's per-step cap or
// its Σ f_i(s) cost headroom. The EndStep barrier steps every shard
// concurrently and merges the notifications back into global
// registration order — which is what makes a single-shard run
// byte-identical to the serial broker, every observable output included
// (notifications, results, health, costs). All methods are safe for
// concurrent use; Publish, Subscribe and EndStep serialize on the
// broker's own lock, and the accessors on each shard Broker's lock.
type ShardedBroker struct {
	mu     sync.Mutex
	db     *storage.DB
	opts   ShardOptions
	shards []*shard

	// order is the global subscription registration order — the merge key
	// that makes sharded notification streams match the serial broker's.
	order []subRef

	// routes caches table → watching shards; invalidated on Subscribe.
	routes map[string][]*shard

	so *shardedObs
}

// subRef locates one subscription: its name and owning shard.
type subRef struct {
	name  string
	shard int
}

// NewShardedBroker builds the sharded runtime over a database of base
// tables.
func NewShardedBroker(db *storage.DB, opts ShardOptions) *ShardedBroker {
	if opts.Shards <= 0 {
		opts.Shards = 1
	}
	if opts.QueueCap <= 0 {
		opts.QueueCap = DefaultShardQueueCap
	}
	sb := &ShardedBroker{db: db, opts: opts}
	for i := 0; i < opts.Shards; i++ {
		b := NewBroker(db)
		b.ns = "shard" + strconv.Itoa(i)
		b.shardLabel = strconv.Itoa(i)
		sb.shards = append(sb.shards, &shard{id: i, b: b})
	}
	return sb
}

// Shards returns the number of partitions.
func (sb *ShardedBroker) Shards() int {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return len(sb.shards)
}

// Close releases nothing: the runtime owns no goroutine between calls,
// so a closed broker stays fully usable. It exists for callers that
// manage the broker's lifetime explicitly.
func (sb *ShardedBroker) Close() {}

// subWeight is a subscription's assignment weight: the cost of draining
// one modification from every one of its delta queues, Σ_i f_i(1).
func subWeight(cfg Subscription) float64 {
	if cfg.Model == nil {
		return 0
	}
	ones := core.NewVector(cfg.Model.N())
	for i := range ones {
		ones[i] = 1
	}
	return cfg.Model.Total(ones)
}

// Subscribe registers a subscription on the shard with the least
// accumulated cost weight Σ f_i(1), ties to the lowest shard id — an
// expensive view counts for more than a cheap one, the asymmetry the
// paper's per-table cost functions describe. The target shard's backlog
// is re-sampled first, as a barrier would, so admission after a mid-run
// subscribe does not depend on when the subscription joined.
func (sb *ShardedBroker) Subscribe(cfg Subscription) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, ref := range sb.order {
		if ref.name == cfg.Name {
			return fmt.Errorf("pubsub: duplicate subscription %q", cfg.Name)
		}
	}
	sh := sb.shards[0]
	for _, c := range sb.shards[1:] {
		if c.weight < sh.weight {
			sh = c
		}
	}
	sh.backlog = sh.b.backlogCost()
	sh.syncObs()
	if err := sh.b.Subscribe(cfg); err != nil {
		return err
	}
	sh.subs++
	sh.weight += subWeight(cfg)
	sb.order = append(sb.order, subRef{name: cfg.Name, shard: sh.id})
	sb.routes = nil
	sh.syncObs()
	return nil
}

// SubscribeCompiled registers a compiled view's subscription —
// identical to Subscribe(cv.Subscription()).
func (sb *ShardedBroker) SubscribeCompiled(cv CompiledSubscription) error {
	return sb.Subscribe(cv.Subscription())
}

// Publish applies one modification to the shared base tables and routes
// it to every shard owning a subscription that references the table.
// The live-table change happens exactly once; then each target shard
// routes its deferred copies into its subscriptions' delta queues, in
// shard order, on the publisher's goroutine. Admission control runs
// before anything mutates: if any target shard is over its per-step cap
// or backlog bound the publish returns a *RejectionError and no state —
// live table or delta queue — has changed.
func (sb *ShardedBroker) Publish(table string, mod ivm.Mod) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	targets := sb.routesFor(table)
	for _, sh := range targets {
		if sh.admitted >= sb.opts.QueueCap {
			sh.observeReject(RejectQueueFull)
			return &RejectionError{
				Shard: sh.id, Table: table, Reason: RejectQueueFull,
				Admitted: sh.admitted, Limit: float64(sb.opts.QueueCap),
			}
		}
		if sb.opts.MaxBacklogCost > 0 && sh.backlog > sb.opts.MaxBacklogCost {
			sh.observeReject(RejectBacklog)
			return &RejectionError{
				Shard: sh.id, Table: table, Reason: RejectBacklog,
				Cost: sh.backlog, Limit: sb.opts.MaxBacklogCost,
			}
		}
	}
	if len(targets) == 0 {
		return applyDirect(sb.db, table, mod)
	}
	if err := applyLive(sb.db, table, mod); err != nil {
		return err
	}
	for _, sh := range targets {
		sh.admitted++
		sh.syncObs()
		if err := sh.b.publishDeferred(table, mod); err != nil {
			return fmt.Errorf("pubsub: shard %d: deferred publish on %q: %w", sh.id, table, err)
		}
	}
	return nil
}

// routesFor resolves which shards watch a base table, caching the
// answer until the next Subscribe. Caller holds sb.mu.
func (sb *ShardedBroker) routesFor(table string) []*shard {
	if sb.routes == nil {
		sb.routes = make(map[string][]*shard)
	}
	if targets, ok := sb.routes[table]; ok {
		return targets
	}
	var targets []*shard
	for _, sh := range sb.shards {
		if sh.b.watchesTable(table) {
			targets = append(targets, sh)
		}
	}
	sb.routes[table] = targets
	return targets
}

// EndStep closes a time step across every shard: each shard steps its
// own Broker (policies drain delta queues, conditions fire, degradation
// heals) concurrently with the others, and samples its backlog for the
// next step's admission checks. The merge layer then resets the
// admission counters, reports the first error (lowest shard id), and
// reassembles the notifications into global registration order —
// exactly the order the serial broker would have emitted.
func (sb *ShardedBroker) EndStep() ([]Notification, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	res := make([]stepResult, len(sb.shards))
	var wg sync.WaitGroup
	for i := 1; i < len(sb.shards); i++ {
		wg.Add(1)
		go func(r *stepResult, b *Broker) {
			defer wg.Done()
			r.step(b)
		}(&res[i], sb.shards[i].b)
	}
	// Shard 0 runs on the caller, which would otherwise only wait.
	res[0].step(sb.shards[0].b)
	wg.Wait()
	var err error
	for i, sh := range sb.shards {
		if res[i].err != nil && err == nil {
			err = fmt.Errorf("pubsub: shard %d: %w", sh.id, res[i].err)
		}
		sh.backlog = res[i].backlog
		sh.admitted = 0
		sh.syncObs()
	}
	if err != nil {
		return nil, err
	}
	// Merge: walk the global registration order; each shard's stream is a
	// subsequence in its own registration order, so taking the head when
	// it matches reconstructs the serial interleaving.
	heads := make([]int, len(res))
	var out []Notification
	for _, ref := range sb.order {
		q := res[ref.shard].notes
		if heads[ref.shard] < len(q) && q[heads[ref.shard]].Subscription == ref.name {
			out = append(out, q[heads[ref.shard]])
			heads[ref.shard]++
		}
	}
	return out, nil
}

// stepResult is one shard's share of an EndStep barrier.
type stepResult struct {
	notes   []Notification
	backlog float64
	err     error
}

// step runs b's EndStep and samples its backlog for the next step's
// admission checks.
func (r *stepResult) step(b *Broker) {
	r.notes, r.err = b.EndStep()
	r.backlog = b.backlogCost()
}

// shardOf finds the shard owning a subscription. Caller holds sb.mu.
func (sb *ShardedBroker) shardOf(name string) (*shard, error) {
	for _, ref := range sb.order {
		if ref.name == name {
			return sb.shards[ref.shard], nil
		}
	}
	return nil, fmt.Errorf("pubsub: no subscription %q", name)
}

// Subscriptions returns the registered subscription names in global
// registration order.
func (sb *ShardedBroker) Subscriptions() []string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]string, len(sb.order))
	for i, ref := range sb.order {
		out[i] = ref.name
	}
	return out
}

// Health reports a subscription's fault-tolerance status, delegated to
// its owning shard. Like the serial broker it is safe to call while the
// workload runs.
func (sb *ShardedBroker) Health(name string) (Health, error) {
	sb.mu.Lock()
	sh, err := sb.shardOf(name)
	sb.mu.Unlock()
	if err != nil {
		return Health{}, err
	}
	return sh.b.Health(name)
}

// HealthInto is the allocation-free Health variant, delegated to the
// owning shard (see Broker.HealthInto).
func (sb *ShardedBroker) HealthInto(name string, h *Health) error {
	sb.mu.Lock()
	sh, err := sb.shardOf(name)
	sb.mu.Unlock()
	if err != nil {
		return err
	}
	return sh.b.HealthInto(name, h)
}

// Result returns the (possibly stale) current content of a subscription.
func (sb *ShardedBroker) Result(name string) ([]storage.Row, error) {
	sb.mu.Lock()
	sh, err := sb.shardOf(name)
	sb.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return sh.b.Result(name)
}

// TotalCost returns the accumulated model maintenance cost of a
// subscription.
func (sb *ShardedBroker) TotalCost(name string) (float64, error) {
	sb.mu.Lock()
	sh, err := sb.shardOf(name)
	sb.mu.Unlock()
	if err != nil {
		return 0, err
	}
	return sh.b.TotalCost(name)
}

// ShardStat is an operator-facing snapshot of one shard.
type ShardStat struct {
	Shard         int
	Subscriptions int
	// Weight is the summed assignment weight Σ f_i(1) of the shard's
	// subscriptions.
	Weight float64
	// Admitted counts modifications admitted since the last step barrier.
	Admitted int
	// BacklogCost is Σ_i f(s_i) sampled at the last step barrier.
	BacklogCost float64
}

// ShardStats snapshots every shard's load, in shard order.
func (sb *ShardedBroker) ShardStats() []ShardStat {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	out := make([]ShardStat, len(sb.shards))
	for i, sh := range sb.shards {
		out[i] = ShardStat{
			Shard:         sh.id,
			Subscriptions: sh.subs,
			Weight:        sh.weight,
			Admitted:      sh.admitted,
			BacklogCost:   sh.backlog,
		}
	}
	return out
}

// SetInjectors installs per-shard fault injectors: factory(i) builds
// shard i's injector, so each shard owns an independent deterministic
// fault stream (a single shared *fault.Seeded would be both racy and
// schedule-dependent across the concurrent barrier). A nil factory disables injection
// everywhere. Convention: give shard i a seed derived from (base, i)
// with shard 0 getting the base seed, so a 1-shard faulted run replays a
// serial broker seeded the same way.
func (sb *ShardedBroker) SetInjectors(factory func(shard int) fault.Injector) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		if factory == nil {
			sh.b.SetInjector(nil)
		} else {
			sh.b.SetInjector(factory(sh.id))
		}
	}
}

// SetStoreOpener installs a durable-store opener on every shard. Each
// shard prefixes its subscriptions' durability namespaces with
// "shard<i>/", so one opener rooted at a single directory gives every
// subscription its own subtree. Install before subscribing, like the
// serial broker's SetStoreOpener.
func (sb *ShardedBroker) SetStoreOpener(open durable.Opener) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.SetStoreOpener(open)
	}
}

// SetSharedDataflow switches every shard onto (or off) the shared
// delta-dataflow runtime. Each shard builds its own hash-consed operator
// graph over the shared base tables, so sharing happens among the views
// co-located on a shard. Enable before subscribing, like the serial
// broker's SetSharedDataflow; the first failing shard's error wins.
func (sb *ShardedBroker) SetSharedDataflow(on bool) error {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		if err := sh.b.SetSharedDataflow(on); err != nil {
			return fmt.Errorf("pubsub: shard %d: %w", sh.id, err)
		}
	}
	return nil
}

// DataflowStats sums the shared operator-graph shape across shards
// (MaxFanout takes the widest shard). Zero when the classic runtime is
// active.
func (sb *ShardedBroker) DataflowStats() dataflow.GraphStats {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	var total dataflow.GraphStats
	for _, sh := range sb.shards {
		st := sh.b.DataflowStats()
		total.Nodes += st.Nodes
		total.Views += st.Views
		total.InternHits += st.InternHits
		if st.MaxFanout > total.MaxFanout {
			total.MaxFanout = st.MaxFanout
		}
	}
	return total
}

// DurabilityStats sums the durable-store counters across every shard's
// subscriptions.
func (sb *ShardedBroker) DurabilityStats() durable.Stats {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	var total durable.Stats
	for _, sh := range sb.shards {
		total.Add(sh.b.DurabilityStats())
	}
	return total
}

// SetRetrySeed seeds each shard's backoff-jitter source with seed+shard,
// so shard 0 matches a serial broker seeded with seed and every shard's
// jitter stream is independent yet replayable.
func (sb *ShardedBroker) SetRetrySeed(seed int64) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.SetRetrySeed(seed + int64(sh.id))
	}
}

// SetRetryPolicy replaces every shard's retry budget.
func (sb *ShardedBroker) SetRetryPolicy(r RetryPolicy) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.SetRetryPolicy(r)
	}
}

// SetCheckpointEvery sets every shard's checkpoint cadence in steps.
func (sb *ShardedBroker) SetCheckpointEvery(n int) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.SetCheckpointEvery(n)
	}
}

// SetCheckpointChainDepth sets every shard's checkpoint-chain rollover
// depth (see Broker.SetCheckpointChainDepth).
func (sb *ShardedBroker) SetCheckpointChainDepth(n int) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.SetCheckpointChainDepth(n)
	}
}

// setSleep replaces every shard's backoff sleeper (tests use a no-op).
func (sb *ShardedBroker) setSleep(f func(time.Duration)) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	for _, sh := range sb.shards {
		sh.b.setSleep(f)
	}
}

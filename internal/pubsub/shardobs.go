package pubsub

import (
	"strconv"

	"abivm/internal/obs"
)

// shardedObs is the sharded broker's own instrumentation: the placement
// and admission-control series the serial broker has no equivalent for.
// The per-shard Broker series (steps, latency, retries, …) are handled
// by each shard's brokerObs with its `shard` label; this bundle adds the
// backpressure view. Nil (the default) is the detached no-op state,
// mirroring brokerObs.
type shardedObs struct {
	shards   *obs.Gauge
	perShard []*shardObs
}

// shardObs is one shard's series, all labeled `shard`.
type shardObs struct {
	backlogCost   *obs.Gauge
	admitted      *obs.Gauge
	subs          *obs.Gauge
	weight        *obs.Gauge
	rejectQueue   *obs.Counter
	rejectBacklog *obs.Counter
}

func newShardedObs(reg *obs.Registry, shards int) *shardedObs {
	if reg == nil {
		return nil
	}
	so := &shardedObs{shards: reg.Gauge("pubsub_shards")}
	so.shards.Set(float64(shards))
	for i := 0; i < shards; i++ {
		id := strconv.Itoa(i)
		so.perShard = append(so.perShard, &shardObs{
			backlogCost:   reg.Gauge("pubsub_shard_backlog_cost", "shard", id),
			admitted:      reg.Gauge("pubsub_shard_admitted_mods", "shard", id),
			subs:          reg.Gauge("pubsub_shard_subscriptions", "shard", id),
			weight:        reg.Gauge("pubsub_shard_weight", "shard", id),
			rejectQueue:   reg.Counter("pubsub_shard_rejections_total", "shard", id, "reason", "queue_full"),
			rejectBacklog: reg.Counter("pubsub_shard_rejections_total", "shard", id, "reason", "backlog"),
		})
	}
	return so
}

// syncObs refreshes the shard's gauges (admission count, backlog
// sample, assignment load). Caller holds the ShardedBroker mutex.
func (sh *shard) syncObs() {
	o := sh.so
	if o == nil {
		return
	}
	o.admitted.Set(float64(sh.admitted))
	o.backlogCost.Set(sh.backlog)
	o.subs.Set(float64(sh.subs))
	o.weight.Set(sh.weight)
}

// observeReject counts one admission-control rejection. Caller holds the
// ShardedBroker mutex.
func (sh *shard) observeReject(r RejectReason) {
	o := sh.so
	if o == nil {
		return
	}
	switch r {
	case RejectQueueFull:
		o.rejectQueue.Inc()
	case RejectBacklog:
		o.rejectBacklog.Inc()
	}
}

// SetObs attaches an observability sink to the sharded runtime: every
// shard's Broker instruments (labeled `shard`), the shard series above,
// and span recording on tr. A nil registry detaches everything.
func (sb *ShardedBroker) SetObs(reg *obs.Registry, tr *obs.Tracer) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	sb.so = newShardedObs(reg, len(sb.shards))
	for i, sh := range sb.shards {
		sh.b.SetObs(reg, tr)
		sh.so = nil
		if sb.so != nil {
			sh.so = sb.so.perShard[i]
		}
		sh.syncObs()
	}
}

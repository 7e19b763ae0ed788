package shardpool

// Accessors and hooks only tests use. The reachability census
// (TestNothingUnreferenced) keeps them out of the non-test build.

import (
	"fmt"
	"seuss/internal/core"
	"seuss/internal/fault"
)

// ShardFaults exposes a shard's fault injector (tests, diagnostics);
// nil when injection is disabled.
func (p *Pool) ShardFaults(shard int) *fault.Injector {
	if shard < 0 || shard >= len(p.shards) {
		return nil
	}
	return p.shards[shard].faults
}

// BreakerState returns a shard's circuit-breaker state name without
// routing through the shard goroutine (the /healthz read: cheap and
// safe even when a shard is wedged mid-request).
func (p *Pool) BreakerState(shard int) (string, error) {
	if shard < 0 || shard >= len(p.shards) {
		return "", fmt.Errorf("shardpool: no shard %d", shard)
	}
	return p.shards[shard].breaker.stateName(), nil
}

// ShardStats snapshots one shard's state by routing the read through
// its owning goroutine — the reply is taken between invocations, never
// mid-invocation.
func (p *Pool) ShardStats(id int) (ShardStats, error) {
	if id < 0 || id >= len(p.shards) {
		return ShardStats{}, fmt.Errorf("shardpool: no shard %d", id)
	}
	var out ShardStats
	if err := p.control(p.shards[id:id+1], func(s *shard) { out = s.stats() }); err != nil {
		return ShardStats{}, err
	}
	return out, nil
}

// InvokeSync is the string-level convenience form mirroring the
// single-node API.
func (p *Pool) InvokeSync(key, source, args string) (Result, error) {
	return p.Invoke(core.Request{Key: key, Source: source, Args: args})
}

// OwnerShard exposes the routing decision (tests, instrumentation).
func (p *Pool) OwnerShard(key string) int { return p.shardFor(key) }

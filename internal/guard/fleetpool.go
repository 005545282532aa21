package guard

import (
	"sync"
)

// DefaultFairShareBurst is the fair-share multiplier: a tenant may hold
// up to DefaultFairShareBurst × its equal share of a shard's checker
// slots before fairness demotes it to best-effort admission.
const DefaultFairShareBurst = 2

// FleetPool is the fleet-scale admission layer (DESIGN.md §10): checks
// from many tenants are sharded by tenant onto independent CheckPools,
// and within each shard a per-tenant fair-share rule keeps one noisy
// tenant from starving the rest. Admission outcomes are never silent:
//
//   - A tenant within its fair share gets the shard pool's normal
//     admission: it waits for a slot.
//   - A tenant over its fair share gets one non-blocking try — spare
//     capacity is free for the taking — and is otherwise shed with a
//     policy-governed verdict counted as a FairnessShed (and in Shed,
//     so the per-shard ledger checks == admitted + shed still covers
//     every offered check).
//
// Sharding by tenant (not process) keeps one tenant's burst confined
// to one shard's queue while its siblings' shards stay unqueued.
type FleetPool struct {
	shards []*fleetShard
}

type fleetShard struct {
	pool *CheckPool

	mu sync.Mutex
	// inflight counts each tenant's checks currently inside this shard
	// (queued or running). Entries are removed at zero, so len(inflight)
	// is the number of currently active tenants — the denominator of the
	// fair share.
	inflight map[string]int
}

// NewFleetPool builds a pool of shards CheckPools with workersPerShard
// checker slots each. shards and workersPerShard below 1 are raised to
// 1. The shard pools are plain blocking CheckPools.
func NewFleetPool(shards, workersPerShard int) *FleetPool {
	if shards < 1 {
		shards = 1
	}
	f := &FleetPool{shards: make([]*fleetShard, shards)}
	for i := range f.shards {
		f.shards[i] = &fleetShard{
			pool:     NewCheckPool(workersPerShard),
			inflight: make(map[string]int),
		}
	}
	return f
}

// NumShards returns the shard count.
func (f *FleetPool) NumShards() int { return len(f.shards) }

// Shards exposes the underlying CheckPools so fault tests can set their
// Stall hooks. Configure before checking starts.
func (f *FleetPool) Shards() []*CheckPool {
	out := make([]*CheckPool, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.pool
	}
	return out
}

// ShardIndex maps a tenant to its shard index (FNV-1a; deterministic
// so a fleet run's shard layout is reproducible from its tenant names,
// and tests can verify per-shard ledgers against offered load).
func (f *FleetPool) ShardIndex(tenant string) int {
	if len(f.shards) == 1 {
		return 0
	}
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(tenant); i++ {
		h = (h ^ uint64(tenant[i])) * 0x100000001b3
	}
	return int(mix(h) % uint64(len(f.shards)))
}

func (f *FleetPool) shardFor(tenant string) *fleetShard {
	return f.shards[f.ShardIndex(tenant)]
}

// Do admits and runs one check for the tenant under the fleet's
// fairness rules, returning the (possibly shed) policy-governed result.
func (f *FleetPool) Do(tenant string, g *Guard) Result {
	return f.shardFor(tenant).do(tenant, g)
}

func (s *fleetShard) do(tenant string, g *Guard) Result {
	// Account the admission attempt, then decide the tenant's standing.
	// The mutex covers only the map — it is released before any pool
	// channel operation, so a blocked admission never holds it.
	s.mu.Lock()
	s.inflight[tenant]++
	cur := s.inflight[tenant]
	share := s.fairShare(len(s.inflight))
	s.mu.Unlock()

	var res Result
	if cur > share {
		// Over fair share: spare capacity only, never a queue slot.
		var ok bool
		if res, ok = s.pool.TryDo(g); !ok {
			res = s.pool.ShedFair(g)
		}
	} else {
		res = s.pool.Do(g)
	}

	s.mu.Lock()
	if s.inflight[tenant]--; s.inflight[tenant] <= 0 {
		delete(s.inflight, tenant)
	}
	s.mu.Unlock()
	return res
}

// fairShare is the per-tenant in-flight bound: DefaultFairShareBurst ×
// an equal split of the shard's checker slots among currently active
// tenants, never below one (every tenant may always have one check in
// flight).
func (s *fleetShard) fairShare(activeTenants int) int {
	if activeTenants < 1 {
		activeTenants = 1
	}
	share := DefaultFairShareBurst * s.pool.Workers() / activeTenants
	if share < 1 {
		share = 1
	}
	return share
}

// Snapshot returns the merged accounting across all shards.
func (f *FleetPool) Snapshot() PoolStats {
	var out PoolStats
	for _, s := range f.shards {
		out.Merge(s.pool.Snapshot())
	}
	return out
}

// ShardSnapshots returns each shard's accounting (ledger checks per
// shard: Checks + Shed is that shard's total offered load).
func (f *FleetPool) ShardSnapshots() []PoolStats {
	out := make([]PoolStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.pool.Snapshot()
	}
	return out
}

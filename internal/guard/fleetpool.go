package guard

import "sync"

// DefaultFairShareBurst is the fair-share multiplier: a tenant may hold
// up to DefaultFairShareBurst × its equal share of a shard's checker
// slots before fairness demotes it to best-effort admission.
const DefaultFairShareBurst = 2

// FleetPool bounds how many flow checks run at once across a fleet of
// protected processes — the reproduction of §6's offloading suggestion
// ("the checking overhead could be removed from the protected
// execution" by dedicating cores to checking) at fleet scale (DESIGN.md
// §10). Each process still blocks on its own endpoint check (the
// verdict gates the syscall), but checks of different processes proceed
// concurrently up to the configured number of checker slots.
//
// Checks are sharded by tenant, each shard with its own slots, and
// within a shard a per-tenant fair-share rule keeps one noisy tenant
// from starving the rest. Admission outcomes are never silent:
//
//   - A tenant within its fair share waits for a slot however long that
//     takes, as the intercepted syscall waits for its verdict (§5.2):
//     no timer ever sheds a check.
//   - A tenant over its fair share gets one non-blocking try — spare
//     capacity is free for the taking — and is otherwise shed with a
//     policy-governed verdict counted as a FairnessShed (and in Shed,
//     so the per-shard ledger checks == admitted + shed still covers
//     every offered check).
//
// Do runs the check on the calling goroutine while holding a slot, so
// all guard-internal state stays confined to the process's goroutine;
// the pool only supplies admission control plus accounting. Sharding by
// tenant (not process) keeps one tenant's burst confined to one shard's
// queue while its siblings' shards stay unqueued.
type FleetPool struct {
	// Hold, if non-nil, runs with a checker slot of the given shard
	// held, before the check: the fault-injection hook modeling a wedged
	// checker core, and the way a test holds a slot for as long as it
	// likes. Configure before checking starts.
	Hold func(shard int)

	shards []*fleetShard
}

type fleetShard struct {
	id    int
	slots chan struct{}

	mu sync.Mutex
	// inflight counts each tenant's checks currently inside this shard
	// (queued or running). Entries are removed at zero, so len(inflight)
	// is the number of currently active tenants — the denominator of the
	// fair share.
	inflight map[string]int
	checks   uint64 // admitted
	sheds    uint64 // refused by fairness
}

// NewFleetPool builds a pool of shards shards with workersPerShard
// checker slots each. shards and workersPerShard below 1 are raised to
// 1; one shard with one slot is fully serialized checking.
func NewFleetPool(shards, workersPerShard int) *FleetPool {
	if shards < 1 {
		shards = 1
	}
	if workersPerShard < 1 {
		workersPerShard = 1
	}
	f := &FleetPool{shards: make([]*fleetShard, shards)}
	for i := range f.shards {
		f.shards[i] = &fleetShard{
			id:       i,
			slots:    make(chan struct{}, workersPerShard),
			inflight: make(map[string]int),
		}
	}
	return f
}

// NumShards returns the shard count.
func (f *FleetPool) NumShards() int { return len(f.shards) }

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
	return f.shardFor(tenant).do(tenant, g, f.Hold)
}

func (s *fleetShard) do(tenant string, g *Guard, hold func(int)) Result {
	// Account the admission attempt, then decide the tenant's standing.
	// The mutex is released before any channel operation or hook call,
	// so a blocked admission never holds it.
	s.mu.Lock()
	s.inflight[tenant]++
	over := s.inflight[tenant] > s.fairShare(len(s.inflight))
	s.mu.Unlock()

	admitted := true
	if over {
		// Over fair share: spare capacity only, never a queue slot.
		select {
		case s.slots <- struct{}{}:
		default:
			admitted = false
		}
	} else {
		s.slots <- struct{}{}
	}

	var res Result
	if admitted {
		if hold != nil {
			hold(s.id)
		}
		res = g.Check()
		<-s.slots
	} else {
		// The verdict follows g.Policy.OnDegraded: FailOpen lets the
		// endpoint through unverified; FailClosed and SlowPathRetry
		// refuse to vouch and fail closed.
		res = Result{
			Degraded:    true,
			Verdict:     VerdictViolation,
			OtherCycles: CyclesPerInterception,
			Reason:      "per-tenant fair share exceeded: check shed",
		}
		if g.Policy.OnDegraded == FailOpen {
			res.Verdict = VerdictClean
		}
		g.noteFairnessShed(&res)
	}

	s.mu.Lock()
	if admitted {
		s.checks++
	} else {
		s.sheds++
	}
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
	share := DefaultFairShareBurst * cap(s.slots) / activeTenants
	if share < 1 {
		share = 1
	}
	return share
}

// snapshot returns the shard's accounting.
func (s *fleetShard) snapshot() PoolStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return PoolStats{Checks: s.checks, Shed: s.sheds, FairnessSheds: s.sheds}
}

// PoolStats is the pool's aggregate accounting.
type PoolStats struct {
	// Checks is the number of checks admitted.
	Checks uint64
	// Shed is the number of checks the pool did not admit; each one
	// produced a policy-governed degraded verdict, never a silent drop,
	// so Checks + Shed is the total offered load.
	Shed uint64
	// FairnessSheds is the subset of Shed forced by per-tenant fairness.
	// Fairness is the only reason a check is shed, so it equals Shed.
	FairnessSheds uint64
	// Retried is always zero: admission is never retried. It stays only
	// because the end-to-end benchmark reports it as guard.pool_retried.
	Retried uint64
}

// Merge adds o into s (fleet aggregation across shards).
func (s *PoolStats) Merge(o PoolStats) {
	s.Checks += o.Checks
	s.Shed += o.Shed
	s.FairnessSheds += o.FairnessSheds
	s.Retried += o.Retried
}

// Snapshot returns the merged accounting across all shards.
func (f *FleetPool) Snapshot() PoolStats {
	var out PoolStats
	for _, s := range f.shards {
		out.Merge(s.snapshot())
	}
	return out
}

// ShardSnapshots returns each shard's accounting (ledger checks per
// shard: Checks + Shed is that shard's total offered load).
func (f *FleetPool) ShardSnapshots() []PoolStats {
	out := make([]PoolStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = s.snapshot()
	}
	return out
}

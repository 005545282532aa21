package guard_test

// Fleet admission tests (run them under -race): many tenants hammer a
// sharded FleetPool concurrently and every offered check must land in
// exactly one ledger bucket — admitted or shed — per shard and in the
// merged aggregate, with per-tenant fairness confining a noisy tenant's
// losses to itself.

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/trace/ipt"
)

// newIdleGuard builds a guard over an empty trace buffer: its checks
// are trivially clean and fast, which maximizes admission contention —
// exactly what the ledger tests want to stress.
func newIdleGuard(t *testing.T, a *analyzed, pol guard.Policy) *guard.Guard {
	t.Helper()
	tr := ipt.NewTracer(ipt.NewToPA(1 << 16))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	return guard.New(nil, a.ocfg, a.ig, tr, pol)
}

func TestFleetPoolShardIndexDeterministic(t *testing.T) {
	f := guard.NewFleetPool(8, 2)
	seen := make(map[int]bool)
	for _, tenant := range []string{"", "a", "tenant-000", "tenant-001", "tenant-063", "x/y/z"} {
		i := f.ShardIndex(tenant)
		if i < 0 || i >= f.NumShards() {
			t.Fatalf("tenant %q mapped out of range: %d", tenant, i)
		}
		if j := f.ShardIndex(tenant); j != i {
			t.Fatalf("tenant %q unstable: %d then %d", tenant, i, j)
		}
		seen[i] = true
	}
	if len(seen) < 2 {
		t.Fatalf("every probe tenant landed on one shard of %d; hash is degenerate", f.NumShards())
	}
	if guard.NewFleetPool(1, 1).ShardIndex("anything") != 0 {
		t.Fatal("single-shard pool must map every tenant to shard 0")
	}
}

// TestFleetPoolLedgerSkewed drives a heavily skewed tenant population
// (one tenant offers ~8× any other's load) through a sharded pool from
// concurrent goroutines, then audits the ledgers: per shard and merged,
// checks == admitted + shed with nothing double-counted and nothing
// silently dropped, every shed is a fairness shed, and the shard sum
// equals the merged snapshot.
func TestFleetPoolLedgerSkewed(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())

	const (
		shards  = 4
		workers = 2
		tenants = 12
		rounds  = 40
	)
	fp := guard.NewFleetPool(shards, workers)
	// A small stall keeps slots occupied so the over-share path (TryDo
	// then ShedFair) is actually exercised, not just the blocking one.
	for _, p := range fp.Shards() {
		p.Stall = func() time.Duration { return 200 * time.Microsecond }
	}

	offered := make([]atomic.Uint64, shards)
	names := make([]string, tenants)
	weights := make([]int, tenants)
	guards := make([][]*guard.Guard, tenants)
	for i := range names {
		names[i] = string(rune('a' + i))
		weights[i] = 1
		if i == 0 {
			weights[i] = 8 // the noisy tenant
		}
		for w := 0; w < weights[i]; w++ {
			guards[i] = append(guards[i], newIdleGuard(t, a, guard.DefaultPolicy()))
		}
	}

	var wg sync.WaitGroup
	for i := range names {
		for w := 0; w < weights[i]; w++ {
			wg.Add(1)
			go func(tenant string, shard int, g *guard.Guard) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					offered[shard].Add(1)
					fp.Do(tenant, g)
				}
			}(names[i], fp.ShardIndex(names[i]), guards[i][w])
		}
	}
	wg.Wait()

	var total uint64
	snaps := fp.ShardSnapshots()
	var sum guard.PoolStats
	for s, ps := range snaps {
		off := offered[s].Load()
		total += off
		if ps.Checks+ps.Shed != off {
			t.Errorf("shard %d ledger: admitted %d + shed %d != offered %d", s, ps.Checks, ps.Shed, off)
		}
		if ps.FairnessSheds != ps.Shed {
			t.Errorf("shard %d: %d sheds but %d fairness sheds; fairness is the only shed", s, ps.Shed, ps.FairnessSheds)
		}
		sum.Merge(ps)
	}
	merged := fp.Snapshot()
	if sum.Checks != merged.Checks || sum.Shed != merged.Shed || sum.FairnessSheds != merged.FairnessSheds {
		t.Errorf("shard sum %+v diverges from merged snapshot %+v", sum, merged)
	}
	if merged.Checks+merged.Shed != total {
		t.Errorf("merged ledger: admitted %d + shed %d != offered %d", merged.Checks, merged.Shed, total)
	}
	if merged.FairnessSheds != merged.Shed {
		t.Errorf("merged: %d sheds but %d fairness sheds; fairness is the only shed", merged.Shed, merged.FairnessSheds)
	}

	// The guard-side ledger must mirror the pool's: every offered check
	// reached exactly one guard as an admitted or shed check.
	var agg guard.Stats
	for i := range guards {
		for _, g := range guards[i] {
			agg.Merge(&g.Stats)
		}
	}
	if agg.Checks != total {
		t.Errorf("guards account %d checks, %d were offered", agg.Checks, total)
	}
	if agg.Shed != merged.Shed {
		t.Errorf("guard sheds %d diverge from pool %d", agg.Shed, merged.Shed)
	}
}

// TestFleetPoolFairnessIsolation pins the fairness property itself: on
// one shard with stalled checker slots, a tenant running 8 concurrent
// check loops is demoted to best-effort admission and sheds, while
// sequential (within-fair-share) tenants are never fairness-shed —
// their checks all block, admit, and come back clean.
func TestFleetPoolFairnessIsolation(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())

	fp := guard.NewFleetPool(1, 2)
	fp.Shards()[0].Stall = func() time.Duration { return time.Millisecond }

	const (
		noisyWorkers = 8
		noisyRounds  = 12
		quietTenants = 5
		quietRounds  = 8
	)
	noisy := make([]*guard.Guard, noisyWorkers)
	for i := range noisy {
		noisy[i] = newIdleGuard(t, a, guard.DefaultPolicy())
	}
	quiet := make([]*guard.Guard, quietTenants)
	for i := range quiet {
		quiet[i] = newIdleGuard(t, a, guard.DefaultPolicy())
	}

	var wg sync.WaitGroup
	for i := range noisy {
		wg.Add(1)
		go func(g *guard.Guard) {
			defer wg.Done()
			for r := 0; r < noisyRounds; r++ {
				fp.Do("noisy", g)
			}
		}(noisy[i])
	}
	for i := range quiet {
		wg.Add(1)
		go func(tenant string, g *guard.Guard) {
			defer wg.Done()
			for r := 0; r < quietRounds; r++ {
				if res := fp.Do(tenant, g); res.Degraded {
					t.Errorf("tenant %s degraded within its fair share: %s", tenant, res.Reason)
				}
			}
		}(string(rune('a'+i)), quiet[i])
	}
	wg.Wait()

	var noisyStats, quietStats guard.Stats
	for _, g := range noisy {
		noisyStats.Merge(&g.Stats)
	}
	for _, g := range quiet {
		quietStats.Merge(&g.Stats)
	}
	if noisyStats.Shed == 0 {
		t.Error("an 8-way tenant on a stalled 2-slot shard was never fairness-shed")
	}
	if quietStats.Shed != 0 {
		t.Errorf("within-share tenants were shed %d times", quietStats.Shed)
	}
	if quietStats.Checks != quietTenants*quietRounds {
		t.Errorf("quiet tenants ran %d of %d checks", quietStats.Checks, quietTenants*quietRounds)
	}
	ps := fp.Snapshot()
	want := uint64(noisyWorkers*noisyRounds + quietTenants*quietRounds)
	if ps.Checks+ps.Shed != want {
		t.Errorf("ledger: admitted %d + shed %d != offered %d", ps.Checks, ps.Shed, want)
	}
	if ps.FairnessSheds != noisyStats.Shed {
		t.Errorf("pool fairness sheds %d != noisy tenant's sheds %d", ps.FairnessSheds, noisyStats.Shed)
	}
}

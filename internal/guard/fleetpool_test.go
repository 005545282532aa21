package guard_test

// Fleet admission tests (run them under -race): many tenants hammer a
// sharded FleetPool concurrently and every offered check must land in
// exactly one ledger bucket — admitted or shed — per shard and in the
// merged aggregate, with per-tenant fairness confining a noisy tenant's
// losses to itself. Apart from the skewed-load stress test, each test
// holds its slots through FleetPool.Hold, so every count is exact.

import (
	"runtime"
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

// heldFleet is a FleetPool whose admitted checks wait in Hold until the
// test releases them, so the test decides when each slot frees and
// every admission outcome is exact, with no sleep.
type heldFleet struct {
	*guard.FleetPool
	held    atomic.Int32 // admitted checks that reached Hold
	release chan struct{}
	wg      sync.WaitGroup
}

func newHeldFleet(shards, workersPerShard int) *heldFleet {
	h := &heldFleet{FleetPool: guard.NewFleetPool(shards, workersPerShard), release: make(chan struct{})}
	h.Hold = func(int) {
		h.held.Add(1)
		<-h.release
	}
	return h
}

// start runs n checks of tenant through g, each on its own goroutine.
func (h *heldFleet) start(tenant string, g *guard.Guard, n int) {
	for i := 0; i < n; i++ {
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			h.Do(tenant, g)
		}()
	}
}

// waitHeld waits until n admitted checks hold a slot in Hold.
func (h *heldFleet) waitHeld(n int32) {
	for h.held.Load() < n {
		runtime.Gosched()
	}
}

// waitInflight waits until n of tenant's checks are inside its shard.
func (h *heldFleet) waitInflight(tenant string, n int) {
	for guard.FleetInflight(h.FleetPool, tenant) != n {
		runtime.Gosched()
	}
}

// finish releases every held check and waits for the started ones.
func (h *heldFleet) finish() {
	close(h.release)
	h.wg.Wait()
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
	// A small stall keeps slots occupied so the over-share path (the
	// non-blocking try, then the shed) is actually exercised, not just
	// the blocking one.
	fp.Hold = func(int) { time.Sleep(200 * time.Microsecond) }

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
// one shard whose two slots are held, a tenant running 8 concurrent
// check loops is demoted to best-effort admission and sheds every
// check, while sequential (within-fair-share) tenants are never
// fairness-shed — their checks all wait, admit once the slots free, and
// come back clean.
func TestFleetPoolFairnessIsolation(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())

	const (
		noisyWorkers = 8
		noisyRounds  = 12
		quietTenants = 5
		quietRounds  = 8
		holders      = 2 // the noisy tenant's checks holding both slots
	)
	h := newHeldFleet(1, 2)
	holder := newIdleGuard(t, a, guard.DefaultPolicy())
	h.start("noisy", holder, holders)
	h.waitHeld(holders)

	// Each quiet tenant's first check queues behind the held slots, so
	// six tenants are active and the fair share is one check in flight.
	quiet := make([]*guard.Guard, quietTenants)
	var quietWG sync.WaitGroup
	for i := range quiet {
		quiet[i] = newIdleGuard(t, a, guard.DefaultPolicy())
		tenant := string(rune('a' + i))
		quietWG.Add(1)
		go func(g *guard.Guard) {
			defer quietWG.Done()
			for r := 0; r < quietRounds; r++ {
				if res := h.Do(tenant, g); res.Degraded {
					t.Errorf("tenant %s degraded within its fair share: %s", tenant, res.Reason)
				}
			}
		}(quiet[i])
		h.waitInflight(tenant, 1)
	}

	// Every noisy check is over that share and finds no free slot.
	noisy := make([]*guard.Guard, noisyWorkers)
	var noisyWG sync.WaitGroup
	for i := range noisy {
		noisy[i] = newIdleGuard(t, a, guard.DefaultPolicy())
		noisyWG.Add(1)
		go func(g *guard.Guard) {
			defer noisyWG.Done()
			for r := 0; r < noisyRounds; r++ {
				if res := h.Do("noisy", g); !res.Degraded {
					t.Errorf("noisy check %d over its fair share was admitted: %+v", r, res)
				}
			}
		}(noisy[i])
	}
	noisyWG.Wait()
	h.finish()
	quietWG.Wait()

	for i, g := range noisy {
		if st := g.Stats; st.Checks != noisyRounds || st.Shed != noisyRounds || st.FailClosures != noisyRounds {
			t.Errorf("noisy guard %d: %d checks, %d shed, %d fail-closures; want %d of each",
				i, st.Checks, st.Shed, st.FailClosures, noisyRounds)
		}
	}
	for i, g := range quiet {
		if st := g.Stats; st.Checks != quietRounds || st.Shed != 0 || st.DegradedChecks != 0 {
			t.Errorf("quiet guard %d: %d checks, %d shed, %d degraded; want %d clean checks",
				i, st.Checks, st.Shed, st.DegradedChecks, quietRounds)
		}
	}
	if st := holder.Stats; st.Checks != holders || st.Shed != 0 {
		t.Errorf("holding guard: %d checks, %d shed; want %d admitted checks", st.Checks, st.Shed, holders)
	}
	const admitted, shed = holders + quietTenants*quietRounds, noisyWorkers * noisyRounds
	if ps := h.Snapshot(); ps.Checks != admitted || ps.Shed != shed || ps.FairnessSheds != shed {
		t.Errorf("pool admitted %d and shed %d (%d for fairness); want %d admitted, %d shed",
			ps.Checks, ps.Shed, ps.FairnessSheds, admitted, shed)
	}
}

// TestFleetShedCyclesReachStats: a shed check's Result charges the
// interception, and the guard's Stats must carry that charge, so that
// Stats.OtherCycles stays the sum of the Results' OtherCycles under
// every OnDegraded mode. One check is shed per mode: its tenant holds
// the shard's one slot and has one more check queued, the fair share of
// a lone tenant on one slot.
func TestFleetShedCyclesReachStats(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())

	for _, mode := range []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry} {
		h := newHeldFleet(1, 1)
		holder := newIdleGuard(t, a, guard.DefaultPolicy())
		h.start("noisy", holder, 1)
		h.waitHeld(1)
		h.start("noisy", holder, 1)
		h.waitInflight("noisy", 2)

		pol := guard.DefaultPolicy()
		pol.OnDegraded = mode
		g := newIdleGuard(t, a, pol)
		before := g.Stats.OtherCycles
		res := h.Do("noisy", g)
		h.finish()

		if !res.Degraded || res.OtherCycles == 0 {
			t.Fatalf("%v: over-share check was not shed with an interception charge: %+v", mode, res)
		}
		if got := g.Stats.OtherCycles - before; got != res.OtherCycles {
			t.Errorf("%v: shed Result charges %d other cycles, Stats gained %d", mode, res.OtherCycles, got)
		}
		if g.Stats.Checks != 1 || g.Stats.Shed != 1 {
			t.Errorf("%v: %d checks, %d shed; want one shed check", mode, g.Stats.Checks, g.Stats.Shed)
		}
		if err := g.Stats.CheckLedger(); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}

package faults_test

// Fleet chaos scenarios (DESIGN.md §10), folded into the `make chaos`
// sweep by name: fork storms through the kernel module's inheritance
// path, a tenant flood against the sharded admission layer, and a
// wedged shard whose stalls must not leak into its siblings. Every
// scenario draws its faults from seeded plans and audits the same
// ledger the fleet simulator pins: checks == admitted + shed, per
// shard and merged, with fork inheritance fully counted.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// forkdFix is the fork-storm fixture: forkd analyzed and trained on
// fork-free inputs only (the kernel never schedules training children),
// so the storm's children certify inheritance, not fresh training.
type forkdFix struct {
	app  *apps.App
	ocfg *cfg.Graph
	ig   *itc.Graph
}

var (
	forkdOnce sync.Once
	forkdF    *forkdFix
	forkdErr  error
)

func forkdFixture(t *testing.T) *forkdFix {
	t.Helper()
	forkdOnce.Do(func() {
		app := apps.Forkd()
		as, err := app.Load()
		if err != nil {
			forkdErr = err
			return
		}
		g, err := cfg.Build(as)
		if err != nil {
			forkdErr = err
			return
		}
		f := &forkdFix{app: app, ocfg: g, ig: itc.FromCFG(g)}
		for _, in := range [][]byte{[]byte("abcdabcd"), []byte("dcbaadbc")} {
			k := kernelsim.New()
			p, err := app.Spawn(k, in)
			if err != nil {
				forkdErr = err
				return
			}
			tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
			if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
				forkdErr = err
				return
			}
			p.CPU.Branch = tr
			st, err := k.Run(p, 50_000_000)
			if err != nil {
				forkdErr = err
				return
			}
			if !st.Exited {
				forkdErr = fmt.Errorf("forkd training run stopped: %v", st)
				return
			}
			tr.Flush()
			evs, err := ipt.DecodeFast(tr.Out.Snapshot())
			if err != nil {
				forkdErr = err
				return
			}
			f.ig.ObserveWindow(ipt.ExtractTIPs(evs))
		}
		f.ig.RebuildCache()
		forkdF = f
	})
	if forkdErr != nil {
		t.Fatal(forkdErr)
	}
	return forkdF
}

// TestChaosFleetForkStorm sweeps seeded fault plans over fork storms:
// four protected forkd processes each fork twice (a 4 → 16 population)
// while a fault plan corrupts their trace writes. Whatever the plan
// does, every process in the table must hold a guard, the guards must
// have checked endpoints, and every child must carry a ForkInherits
// mark.
func TestChaosFleetForkStorm(t *testing.T) {
	f := forkdFixture(t)
	n := int64(30)
	if testing.Short() {
		n = 6
	}
	modes := []guard.DegradedMode{guard.FailClosed, guard.SlowPathRetry, guard.FailOpen}
	const initial = 4

	var totalInherits uint64
	for seed := int64(0); seed < n; seed++ {
		plan := faults.FromSeed(seed)
		k := kernelsim.New()
		km := guard.InstallModule(k)

		pol := guard.DefaultPolicy()
		pol.OnDegraded = modes[seed%int64(len(modes))]

		var procs []*kernelsim.Process
		for i := 0; i < initial; i++ {
			// Two 'F' commands: each initial process becomes four — the
			// second fork is executed by parent and first child alike,
			// because both inherit the stdin cursor.
			p, err := f.app.Spawn(k, []byte("abFcdFab"))
			if err != nil {
				t.Fatal(err)
			}
			g, err := km.Protect(p, f.ocfg, f.ig, pol)
			if err != nil {
				t.Fatal(err)
			}
			g.Tracer.Fault = plan
			procs = append(procs, p)
		}

		sts, err := k.RunMulticore(procs, 1, 200, 50_000_000)
		km.Shutdown()
		if err != nil {
			t.Fatalf("seed %d mode %v: storm aborted: %v", seed, pol.OnDegraded, err)
		}

		total := len(k.Procs())
		guards := km.Guards()
		if len(guards) != total {
			t.Errorf("seed %d: %d guards for %d processes: a forked child runs unguarded", seed, len(guards), total)
		}
		if len(sts) != total {
			t.Errorf("seed %d: %d exit statuses for %d processes", seed, len(sts), total)
		}

		var inherits, guardChecks uint64
		for _, g := range guards {
			inherits += g.Stats.ForkInherits
			guardChecks += g.Stats.Checks
		}
		if inherits != uint64(total-initial) {
			t.Errorf("seed %d: %d ForkInherits across %d processes (%d initial): inheritance miscounted",
				seed, inherits, total, initial)
		}
		totalInherits += inherits

		if guardChecks == 0 {
			t.Errorf("seed %d: no guard ran a check: the storm's endpoints went unchecked", seed)
		}
		if pol.OnDegraded == guard.FailOpen && !plan.Corrupting() {
			for i, st := range sts {
				if !st.Exited {
					t.Errorf("seed %d fail-open: benign process %d did not survive a loss-only plan: %v (plan %+v)",
						seed, i, st, plan.Config())
				}
			}
		}
	}
	if totalInherits == 0 {
		t.Error("no fork in the whole sweep inherited protection; the storm never stormed")
	}
}

// TestChaosFleetTenantFlood floods a sharded FleetPool from a skewed
// tenant population while a seeded fault plan stalls every checker
// slot: the flooding tenant runs past its fair share, so admission must
// shed, but never miscount — per shard and merged, checks == admitted +
// shed against independently counted offered load, every shed is a
// fairness shed, and the guard-side ledger agrees.
func TestChaosFleetTenantFlood(t *testing.T) {
	f := chaosFixture(t)
	const (
		shards       = 3
		workers      = 2
		noisyWorkers = 8
		tenants      = 10
		rounds       = 20
	)
	for seed := int64(0); seed < 3; seed++ {
		plan := faults.New(faults.Config{
			Seed:     1000 + seed,
			Rates:    stallAlways(),
			StallFor: time.Duration(100+seed*150) * time.Microsecond,
		})
		fp := guard.NewFleetPool(shards, workers)
		fp.Hold = func(int) { time.Sleep(plan.Stall()) }

		offered := make([]atomic.Uint64, shards)
		var guards []*guard.Guard
		var mu sync.Mutex
		var wg sync.WaitGroup
		drive := func(tenant string, g *guard.Guard) {
			defer wg.Done()
			shard := fp.ShardIndex(tenant)
			for r := 0; r < rounds; r++ {
				offered[shard].Add(1)
				fp.Do(tenant, g)
			}
		}
		for i := 0; i < tenants; i++ {
			name := fmt.Sprintf("tenant-%d", i)
			workersFor := 1
			if i == 0 {
				workersFor = noisyWorkers // the flooding tenant
			}
			for w := 0; w < workersFor; w++ {
				g := idleGuard(t, f, guard.DefaultPolicy())
				mu.Lock()
				guards = append(guards, g)
				mu.Unlock()
				wg.Add(1)
				go drive(name, g)
			}
		}
		wg.Wait()

		var total uint64
		var sum guard.PoolStats
		for s, ps := range fp.ShardSnapshots() {
			off := offered[s].Load()
			total += off
			if ps.Checks+ps.Shed != off {
				t.Errorf("seed %d shard %d ledger: admitted %d + shed %d != offered %d",
					seed, s, ps.Checks, ps.Shed, off)
			}
			if ps.FairnessSheds != ps.Shed {
				t.Errorf("seed %d shard %d: %d sheds but %d fairness sheds; fairness is the only shed", seed, s, ps.Shed, ps.FairnessSheds)
			}
			sum.Merge(ps)
		}
		merged := fp.Snapshot()
		if sum.Checks != merged.Checks || sum.Shed != merged.Shed || sum.FairnessSheds != merged.FairnessSheds {
			t.Errorf("seed %d: shard sum %+v diverges from merged %+v", seed, sum, merged)
		}
		if merged.Checks+merged.Shed != total {
			t.Errorf("seed %d merged ledger: admitted %d + shed %d != offered %d", seed, merged.Checks, merged.Shed, total)
		}
		if merged.FairnessSheds != merged.Shed {
			t.Errorf("seed %d merged: %d sheds but %d fairness sheds; fairness is the only shed", seed, merged.Shed, merged.FairnessSheds)
		}
		if merged.Shed == 0 {
			t.Errorf("seed %d: a stalled flood shed nothing; the fairness path went untested", seed)
		}
		var agg guard.Stats
		for _, g := range guards {
			agg.Merge(&g.Stats)
		}
		if agg.Checks != total {
			t.Errorf("seed %d: guards account %d checks, %d were offered", seed, agg.Checks, total)
		}
		if agg.Shed != merged.Shed {
			t.Errorf("seed %d: guard sheds %d diverge from pool %d", seed, agg.Shed, merged.Shed)
		}
		if counts := plan.Counts(); counts[faults.Stall] == 0 {
			t.Errorf("seed %d: the fault plan never stalled a slot; the flood ran unimpeded", seed)
		}
	}
}

// TestChaosFleetShardStall wedges one shard of a FleetPool — every
// checker slot stalled — while the other shards run clean. Failure
// containment is the property: tenants on clean shards must never be
// shed or degraded, the wedged shard's tenant, running past its fair
// share, must shed (not deadlock), and every ledger must still balance.
func TestChaosFleetShardStall(t *testing.T) {
	f := chaosFixture(t)
	const (
		shards       = 4
		workers      = 2
		wedgedLoops  = 6
		rounds       = 10
		cleanPerShrd = 2
	)
	fp := guard.NewFleetPool(shards, workers)
	byShard := make([][]string, shards)
	for i := 0; i < 64; i++ {
		name := fmt.Sprintf("t-%02d", i)
		byShard[fp.ShardIndex(name)] = append(byShard[fp.ShardIndex(name)], name)
	}
	for s, names := range byShard {
		if len(names) == 0 {
			t.Fatalf("no probe tenant hashed to shard %d; widen the tenant sweep", s)
		}
	}
	const wedged = 0
	plan := faults.New(faults.Config{
		Seed:     77,
		Rates:    stallAlways(),
		StallFor: 2 * time.Millisecond,
	})
	fp.Hold = func(shard int) {
		if shard == wedged {
			time.Sleep(plan.Stall())
		}
	}

	offered := make([]atomic.Uint64, shards)
	var cleanGuards []*guard.Guard
	var mu sync.Mutex
	var wg sync.WaitGroup
	// The wedged shard's tenant hammers it concurrently, with more check
	// loops than its fair share of the shard's slots...
	for w := 0; w < wedgedLoops; w++ {
		g := idleGuard(t, f, guard.DefaultPolicy())
		wg.Add(1)
		go func(tenant string, g *guard.Guard) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				offered[wedged].Add(1)
				fp.Do(tenant, g)
			}
		}(byShard[wedged][0], g)
	}
	// ...while tenants on every clean shard check sequentially, within
	// their fair share, and must come back undegraded every time.
	for s := 1; s < shards; s++ {
		names := byShard[s]
		if len(names) > cleanPerShrd {
			names = names[:cleanPerShrd]
		}
		for _, name := range names {
			g := idleGuard(t, f, guard.DefaultPolicy())
			mu.Lock()
			cleanGuards = append(cleanGuards, g)
			mu.Unlock()
			wg.Add(1)
			go func(shard int, tenant string, g *guard.Guard) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					offered[shard].Add(1)
					if res := fp.Do(tenant, g); res.Degraded {
						t.Errorf("tenant %s on clean shard %d degraded: %s", tenant, shard, res.Reason)
					}
				}
			}(s, name, g)
		}
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("wedged shard deadlocked the fleet pool")
	}

	snaps := fp.ShardSnapshots()
	if snaps[wedged].Shed == 0 {
		t.Error("the wedged shard shed nothing; its over-share tenant was never refused")
	}
	var sum guard.PoolStats
	for s, ps := range snaps {
		if s != wedged && ps.Shed != 0 {
			t.Errorf("clean shard %d shed %d checks; the wedged shard's failure leaked", s, ps.Shed)
		}
		if off := offered[s].Load(); ps.Checks+ps.Shed != off {
			t.Errorf("shard %d ledger: admitted %d + shed %d != offered %d", s, ps.Checks, ps.Shed, off)
		}
		if ps.FairnessSheds != ps.Shed {
			t.Errorf("shard %d: %d sheds but %d fairness sheds; fairness is the only shed", s, ps.Shed, ps.FairnessSheds)
		}
		sum.Merge(ps)
	}
	merged := fp.Snapshot()
	if sum.Checks != merged.Checks || sum.Shed != merged.Shed || sum.FairnessSheds != merged.FairnessSheds {
		t.Errorf("shard sum %+v diverges from merged %+v", sum, merged)
	}
	var clean guard.Stats
	for _, g := range cleanGuards {
		clean.Merge(&g.Stats)
	}
	if clean.Shed != 0 {
		t.Errorf("clean-shard tenants were shed %d times", clean.Shed)
	}
}

// idleGuard builds a guard over an empty trace buffer: trivially clean
// checks, maximum admission pressure.
func idleGuard(t *testing.T, f *fixture, pol guard.Policy) *guard.Guard {
	t.Helper()
	tr := ipt.NewTracer(ipt.NewToPA(1 << 16))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	return guard.New(nil, f.ocfg, f.ig, tr, pol)
}

package guard_test

// Satellite tests riding the differential-oracle PR: slow-path verdict
// caching across processes and retraining (the §7.1.1 approval cache
// end to end), Stats.Merge completeness, and the FleetPool accounting
// invariant under concurrent use (run with -race).

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// TestSlowPathApprovalReuseAndInvalidation drives the approval cache
// through its full life cycle: a sparsely trained ITC-CFG forces slow
// paths whose clean verdicts are cached; a second identical run reuses
// them (fewer slow checks); a RebuildCache advances the label generation,
// so a third run must re-earn every verdict from scratch.
func TestSlowPathApprovalReuseAndInvalidation(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	sparse := []byte("G /x\n")
	a.train(t, sparse) // sparse: benign traffic leaves low-credit edges

	shared := guard.NewApprovalCache()
	run := func() (uint64, *guard.Guard) {
		k := kernelsim.New()
		km := guard.InstallModule(k)
		p, err := a.app.Spawn(k, benignTraffic())
		if err != nil {
			t.Fatal(err)
		}
		g, err := km.Protect(p, a.ocfg, a.ig, guard.DefaultPolicy())
		if err != nil {
			t.Fatal(err)
		}
		g.ShareApprovals(shared)
		st, err := k.Run(p, 80_000_000)
		if err != nil || !st.Exited {
			t.Fatalf("benign run: %v %v; reports %v", st, err, km.ReportsSnapshot())
		}
		if g.Stats.Violations != 0 {
			t.Fatalf("false positives: %+v", g.Stats)
		}
		return g.Stats.SlowChecks, g
	}

	s1, _ := run()
	if s1 == 0 {
		t.Fatal("sparse training produced no slow paths; test is vacuous")
	}
	if shared.Len() == 0 {
		t.Fatal("clean slow-path verdicts were not cached")
	}

	s2, _ := run()
	if s2 >= s1 {
		t.Fatalf("cached approvals not reused: %d slow checks (warm) vs %d (cold)", s2, s1)
	}

	// An Observe between runs publishes nothing: the next run checks
	// against the same artifact, keeps every approval, and takes exactly
	// the warm run's slow paths.
	pub, before := a.ig.Artifact(), shared.Len()
	a.observe(t, sparse)
	sObs, gObs := run()
	if sObs != s2 {
		t.Fatalf("after an unpublished Observe, slow checks = %d, want the warm count %d", sObs, s2)
	}
	if gObs.Artifact() != pub || shared.Len() != before {
		t.Fatalf("an unpublished Observe changed the checked labels (artifact moved: %v, approvals %d -> %d)",
			gObs.Artifact() != pub, before, shared.Len())
	}

	// RebuildCache publishes a new artifact; the flush is lazy — it
	// happens at the first check of the next run, not here.
	a.ig.RebuildCache()
	if shared.Len() != before {
		t.Fatalf("approval cache flushed eagerly (%d -> %d); SyncGen is a check-time sync", before, shared.Len())
	}

	// The next check adopts the new generation, and with the cache
	// invalidated the deterministic workload retraces run 1 exactly:
	// every approval is re-earned on the slow path.
	s3, g3 := run()
	if g3.Artifact() != a.ig.Artifact() || g3.Artifact().Gen() == pub.Gen() {
		t.Fatal("the run after RebuildCache did not adopt the newly published artifact")
	}
	if s3 != s1 {
		t.Fatalf("after label-generation advance, slow checks = %d, want the cold count %d", s3, s1)
	}
	if shared.Len() == 0 {
		t.Fatal("approvals not re-earned after invalidation")
	}
}

// TestStatsMerge checks Merge over every Stats field by reflection, so a
// field Merge mishandles fails here instead of silently vanishing from
// multi-process aggregates. Counters merge by sum; high-water marks
// (pinned in maxMerged, independently of the struct tags Merge reads)
// merge by maximum.
func TestStatsMerge(t *testing.T) {
	maxMerged := map[string]bool{"AsyncMaxLag": true}
	var a, b guard.Stats
	va := reflect.ValueOf(&a).Elem()
	vb := reflect.ValueOf(&b).Elem()
	n := va.NumField()
	if n == 0 {
		t.Fatal("Stats has no fields")
	}
	for i := 0; i < n; i++ {
		f := va.Type().Field(i)
		if f.Type.Kind() != reflect.Uint64 {
			t.Fatalf("Stats field %s is %s; this test (and Merge) assume uint64 counters", f.Name, f.Type)
		}
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(1000 + 10*i))
	}
	a.Merge(&b)
	for i := 0; i < n; i++ {
		name := va.Type().Field(i).Name
		lo, hi := uint64(i+1), uint64(1000+10*i)
		want := lo + hi
		if maxMerged[name] {
			want = hi // hi > lo by construction
		}
		if got := va.Field(i).Uint(); got != want {
			t.Errorf("Merge dropped field %s: got %d, want %d", name, got, want)
		}
	}
	if got := vb.Field(0).Uint(); got != 1000 {
		t.Errorf("Merge mutated its argument: field 0 = %d", got)
	}
}

// TestStatsMergeZeroAlloc pins that the reflective Merge allocates
// nothing: fleet and multi-process runs call it once per process or
// fork batch.
func TestStatsMergeZeroAlloc(t *testing.T) {
	var a, b guard.Stats
	b.Checks, b.AsyncMaxLag = 3, 7
	if allocs := testing.AllocsPerRun(100, func() { a.Merge(&b) }); allocs != 0 {
		t.Fatalf("Stats.Merge allocated %.1f times per call, want 0", allocs)
	}
}

// TestStatsCheckLedger: a ledger that keeps every accounting identity
// passes, and pushing any one identity past its bound fails the check
// with that identity named.
func TestStatsCheckLedger(t *testing.T) {
	ok := guard.Stats{
		Checks: 10, SlowChecks: 4, Violations: 3, HighEdges: 20, CacheHits: 20,
		DegradedChecks: 5, FailOpens: 2, FailClosures: 3, Shed: 5,
		Retries: 5 * guard.DefaultRetryMax,
	}
	if err := ok.CheckLedger(); err != nil {
		t.Fatalf("consistent ledger rejected: %v", err)
	}
	for _, c := range []struct {
		rule    string
		perturb func(*guard.Stats)
	}{
		{"CacheHits <= HighEdges", func(s *guard.Stats) { s.CacheHits++ }},
		{"FailOpens+FailClosures <= DegradedChecks", func(s *guard.Stats) { s.FailOpens++ }},
		{"DegradedChecks <= Checks", func(s *guard.Stats) { s.Checks = s.DegradedChecks - 1 }},
		{"FailClosures <= Violations", func(s *guard.Stats) { s.Violations-- }},
		{"Shed <= DegradedChecks", func(s *guard.Stats) { s.Shed++ }},
		{"SlowChecks <= Checks", func(s *guard.Stats) { s.SlowChecks = s.Checks + 1 }},
		{"Retries <= DefaultRetryMax*DegradedChecks", func(s *guard.Stats) { s.Retries++ }},
	} {
		s := ok
		c.perturb(&s)
		err := s.CheckLedger()
		if err == nil || !strings.Contains(err.Error(), c.rule) {
			t.Errorf("breaking %s: CheckLedger = %v", c.rule, err)
		}
	}
}

// TestFleetCheckPoolInvariantConcurrent saturates a one-shard FleetPool
// from many goroutines and asserts the no-silent-drop invariant with
// exact counts: every Do call is either admitted or shed (pool
// accounting), every one of them lands in some guard's Stats.Checks
// (guard accounting), and the shed counts agree between the two
// ledgers. Guards cycle through all three OnDegraded modes. Both
// subtests hold the shard's slots through FleetPool.Hold, so which
// calls wait and which are shed does not depend on the scheduler.
func TestFleetCheckPoolInvariantConcurrent(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())

	modes := []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry}
	const goroutines, iters = 9, 25
	const total = uint64(goroutines * iters)
	// drive runs every guard's check loop (goroutine i calls do(i, g))
	// concurrently and returns the guards once all loops are done.
	drive := func(t *testing.T, do func(int, *guard.Guard) guard.Result) []*guard.Guard {
		guards := make([]*guard.Guard, goroutines)
		for i := range guards {
			pol := guard.DefaultPolicy()
			pol.OnDegraded = modes[i%len(modes)]
			guards[i] = newIdleGuard(t, a, pol)
		}
		var wg sync.WaitGroup
		for i, g := range guards {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := 0; j < iters; j++ {
					res := do(i, g)
					// The tracers never record anything, so the only
					// possible violations are shed fail-closed verdicts.
					if res.Verdict == guard.VerdictViolation && !res.Degraded {
						t.Errorf("non-degraded violation over an empty trace: %+v", res)
					}
				}
			}()
		}
		wg.Wait()
		return guards
	}

	// Each guard is its own tenant, within its fair share, so every call
	// waits for a slot and runs. The slots stay held until every tenant's
	// first check is inside the shard, so seven of them certainly wait.
	t.Run("bare-pool", func(t *testing.T) {
		h := newHeldFleet(1, 2)
		tenant := func(i int) string { return string(rune('a' + i)) }
		go func() {
			h.waitHeld(2)
			for i := 0; i < goroutines; i++ {
				h.waitInflight(tenant(i), 1)
			}
			h.finish()
		}()
		guards := drive(t, func(i int, g *guard.Guard) guard.Result { return h.Do(tenant(i), g) })
		if ps := h.Snapshot(); ps.Checks != total || ps.Shed != 0 {
			t.Fatalf("pool admitted %d and shed %d of %d Do calls; every call must wait and run", ps.Checks, ps.Shed, total)
		}
		var agg guard.Stats
		for _, g := range guards {
			agg.Merge(&g.Stats)
		}
		if agg.Checks != total || agg.Shed != 0 || agg.DegradedChecks != 0 {
			t.Fatalf("guards account %d checks (%d shed, %d degraded), want %d clean checks",
				agg.Checks, agg.Shed, agg.DegradedChecks, total)
		}
	})

	// One tenant holds both slots and has two more checks queued: with
	// one active tenant and 2 slots its fair share is 4 in flight. Every
	// further call of it is over that share, finds no free slot and is
	// shed, however the nine loops interleave.
	t.Run("fleet-fairness-exact", func(t *testing.T) {
		h := newHeldFleet(1, 2)
		holder := newIdleGuard(t, a, guard.DefaultPolicy())
		h.start("noisy", holder, 2)
		h.waitHeld(2)
		h.start("noisy", holder, 2)
		h.waitInflight("noisy", 4)

		guards := drive(t, func(_ int, g *guard.Guard) guard.Result {
			res := h.Do("noisy", g)
			if !res.Degraded {
				t.Errorf("%v guard: a call over the fair share was admitted: %+v", g.Policy.OnDegraded, res)
			}
			return res
		})
		h.finish()

		for i, g := range guards {
			st := g.Stats
			wantOpen, wantClosed := uint64(0), uint64(iters)
			if g.Policy.OnDegraded == guard.FailOpen {
				wantOpen, wantClosed = iters, 0
			}
			if st.Checks != iters || st.Shed != iters || st.FailOpens != wantOpen || st.FailClosures != wantClosed {
				t.Errorf("%v guard %d: checks %d, shed %d, fail-opens %d, fail-closures %d; want %d, %d, %d, %d",
					g.Policy.OnDegraded, i, st.Checks, st.Shed, st.FailOpens, st.FailClosures, iters, iters, wantOpen, wantClosed)
			}
		}
		if ps := h.Snapshot(); ps.Checks != 4 || ps.Shed != total || ps.FairnessSheds != total {
			t.Fatalf("pool admitted %d and shed %d (%d for fairness); want 4 admitted, %d shed", ps.Checks, ps.Shed, ps.FairnessSheds, total)
		}
		if holder.Stats.Checks != 4 || holder.Stats.Shed != 0 {
			t.Fatalf("holding guard: %d checks, %d shed; want 4 admitted checks", holder.Stats.Checks, holder.Stats.Shed)
		}
	})
}

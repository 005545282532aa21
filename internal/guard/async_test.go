package guard_test

// End-to-end tests of the asynchronous checking pipeline (DESIGN.md §9)
// against the real vulnerable server: verdict transparency (async runs
// must be bit-for-bit equivalent to synchronous ones on every
// verdict-bearing counter, with live racing workers), and worker-failure
// containment (injected stalls and crashes, plus a real worker panic
// resolved under each Policy.OnDegraded mode).

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// asyncOnlyStats are the pipeline's own scheduling counters: the only
// guard.Stats fields allowed to differ between a synchronous and an
// asynchronous run of the same workload.
var asyncOnlyStats = map[string]bool{
	"AsyncWindows": true, "AsyncMaxLag": true, "WorkerCrashes": true,
}

// heavyTraffic is a benign request stream long enough to fill several
// 8 KiB ToPA regions (one benignTraffic round trip only traces ~3 KB,
// which never triggers a region-full capture). It avoids the payload
// ('P') requests on purpose — repeating those overflows the vulnerable
// server's own buffer and segfaults it without any attack.
func heavyTraffic() []byte {
	return []byte(strings.Repeat("G /index\nG /api/v1/users\nH /health\n", 16))
}

type asyncRun struct {
	st      kernelsim.ExitStatus
	g       *guard.Guard
	reports []guard.ViolationReport
	pool    guard.AsyncPoolStats
}

// runWorkload executes one protected run. faultSeed != 0 attaches a
// seeded stream-fault plan; in async runs the same plan doubles as the
// worker-fault source (its side draws never perturb the stream draws, so
// a sync run with an equal seed sees identical trace bytes).
func runWorkload(t *testing.T, a *analyzed, input []byte, mode guard.DegradedMode, async bool, faultSeed int64, wf guard.WorkerFaults) asyncRun {
	t.Helper()
	k := kernelsim.New()
	p, err := a.app.Spawn(k, input)
	if err != nil {
		t.Fatal(err)
	}
	km := guard.InstallModule(k)
	pol := guard.DefaultPolicy()
	pol.OnDegraded = mode
	pol.Async = async
	var plan *faults.Plan
	if faultSeed != 0 {
		plan = faults.FromSeed(faultSeed)
	}
	var ap *guard.AsyncPool
	if async {
		ap = guard.NewAsyncPool(2)
		switch {
		case wf != nil:
			ap.InjectFaults(wf)
		case plan != nil:
			ap.InjectFaults(plan)
		}
		km.UseAsync(ap)
	}
	g, err := km.Protect(p, a.ocfg, a.ig, pol)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		g.Tracer.Fault = plan
	}
	st, err := k.Run(p, 80_000_000)
	if err != nil {
		t.Fatal(err)
	}
	out := asyncRun{st: st, g: g}
	if ap != nil {
		// Stop the workers before Shutdown folds the pipeline counters,
		// so a worker still busy with a late wake cannot count a crash
		// after the fold or after the pool snapshot.
		ap.Close()
		out.pool = ap.Snapshot()
	}
	km.Shutdown()
	out.reports = km.ReportsSnapshot()
	return out
}

// diffRunStats compares every guard.Stats counter except the
// async-scheduling ones.
func diffRunStats(sync, async *guard.Stats) []string {
	var divs []string
	vs, va := reflect.ValueOf(sync).Elem(), reflect.ValueOf(async).Elem()
	for i := 0; i < vs.NumField(); i++ {
		name := vs.Type().Field(i).Name
		if asyncOnlyStats[name] {
			continue
		}
		if sv, av := vs.Field(i).Uint(), va.Field(i).Uint(); sv != av {
			divs = append(divs, fmt.Sprintf("%s: sync=%d async=%d", name, sv, av))
		}
	}
	return divs
}

// TestAsyncConformanceEndToEnd is the pipeline's transparency contract,
// measured with live racing workers: for benign and exploit workloads,
// under every degraded mode, with and without stream faults, the
// asynchronous run must match the synchronous run on exit status, kill
// verdicts, violation reports, and every verdict-bearing counter.
func TestAsyncConformanceEndToEnd(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic(), []byte("G /x\nP 32\nH /h\n"))
	as, err := a.app.Load()
	if err != nil {
		t.Fatal(err)
	}
	rop, err := attack.BuildROPWrite(as)
	if err != nil {
		t.Fatal(err)
	}

	modes := []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry}
	workloads := []struct {
		name  string
		input []byte
	}{
		{"benign", heavyTraffic()},
		{"rop", rop},
	}
	for _, mode := range modes {
		for _, w := range workloads {
			for _, seed := range []int64{0, 11} {
				name := fmt.Sprintf("%v/%s/seed%d", mode, w.name, seed)
				t.Run(name, func(t *testing.T) {
					sr := runWorkload(t, a, w.input, mode, false, seed, nil)
					ar := runWorkload(t, a, w.input, mode, true, seed, nil)
					if sr.st.Exited != ar.st.Exited || sr.st.Killed != ar.st.Killed {
						t.Fatalf("exit status diverged: sync %+v, async %+v", sr.st, ar.st)
					}
					if len(sr.reports) != len(ar.reports) {
						t.Fatalf("violation reports diverged: sync %v, async %v", sr.reports, ar.reports)
					}
					if divs := diffRunStats(&sr.g.Stats, &ar.g.Stats); len(divs) != 0 {
						t.Fatalf("stats diverged:\n  %v", divs)
					}
				})
			}
		}
	}
}

// alwaysStall wedges every worker task for d.
type alwaysStall struct{ d time.Duration }

func (s alwaysStall) WorkerStall() time.Duration { return s.d }
func (alwaysStall) WorkerCrash() bool            { return false }

// alwaysCrash panics every worker task at pickup (the injected,
// pre-pickup containment case).
type alwaysCrash struct{}

func (alwaysCrash) WorkerStall() time.Duration { return 0 }
func (alwaysCrash) WorkerCrash() bool          { return true }

// panicOnce panics from inside the worker's fault hook exactly n times —
// a stand-in for a real worker bug (not the injected sentinel), so the
// recovery path must poison the window and resolve it under policy.
type panicOnce struct{ left int32 }

func (p *panicOnce) WorkerStall() time.Duration {
	if atomic.AddInt32(&p.left, -1) >= 0 {
		panic("worker wedged beyond repair")
	}
	return 0
}
func (*panicOnce) WorkerCrash() bool { return false }

// TestAsyncInjectedWorkerFaultsAreVerdictTransparent: a pool whose
// workers permanently stall or crash at every pickup still produces the
// synchronous run's exact verdicts — the gate decodes whatever the
// workers never drained.
func TestAsyncInjectedWorkerFaultsAreVerdictTransparent(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())
	input := heavyTraffic()
	sr := runWorkload(t, a, input, guard.FailClosed, false, 0, nil)
	if !sr.st.Exited {
		t.Fatalf("baseline benign run: %+v, reports %v", sr.st, sr.reports)
	}

	t.Run("crash-storm", func(t *testing.T) {
		ar := runWorkload(t, a, input, guard.FailClosed, true, 0, alwaysCrash{})
		if !ar.st.Exited || ar.st.Killed {
			t.Fatalf("crash-storm run: %+v, reports %v", ar.st, ar.reports)
		}
		if divs := diffRunStats(&sr.g.Stats, &ar.g.Stats); len(divs) != 0 {
			t.Fatalf("stats diverged under crash storm:\n  %v", divs)
		}
		if ar.pool.Crashes == 0 {
			t.Fatal("no crashes recorded; injection did not fire (no region-full capture?)")
		}
		if ar.g.Stats.WorkerCrashes == 0 {
			t.Fatal("contained crashes were not folded into guard.Stats")
		}
	})
	t.Run("stall-storm", func(t *testing.T) {
		ar := runWorkload(t, a, input, guard.FailClosed, true, 0, alwaysStall{d: 300 * time.Microsecond})
		if !ar.st.Exited || ar.st.Killed {
			t.Fatalf("stall-storm run: %+v, reports %v", ar.st, ar.reports)
		}
		if divs := diffRunStats(&sr.g.Stats, &ar.g.Stats); len(divs) != 0 {
			t.Fatalf("stats diverged under stall storm:\n  %v", divs)
		}
		if ar.pool.Stalls == 0 {
			t.Fatal("no stalls recorded; injection did not fire")
		}
	})
}

// TestAsyncRealWorkerPanicResolvesUnderPolicy: a genuine worker bug (a
// panic outside the injected-crash sentinel) poisons the guard's window;
// every OnDegraded mode must contain it — the traced process's fate is
// decided by policy, never by the dying worker's goroutine.
func TestAsyncRealWorkerPanicResolvesUnderPolicy(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())
	input := heavyTraffic()

	for _, mode := range []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry} {
		t.Run(mode.String(), func(t *testing.T) {
			ar := runWorkload(t, a, input, mode, true, 0, &panicOnce{left: 1})
			if ar.pool.Crashes == 0 {
				t.Fatal("the worker panic was not recorded; injection did not fire")
			}
			if ar.g.Stats.WorkerCrashes == 0 {
				t.Fatal("the contained panic was not folded into guard.Stats")
			}
			switch mode {
			case guard.FailOpen, guard.SlowPathRetry:
				// Both modes must let the benign process live: fail-open by
				// fiat, slow-path-retry because the trace itself is intact
				// and a fresh full-precision decode recovers it.
				if !ar.st.Exited || ar.st.Killed {
					t.Fatalf("benign process did not survive: %+v, reports %v", ar.st, ar.reports)
				}
			case guard.FailClosed:
				// The poison is consumed by whichever check follows it; if
				// that check's window was incremental the verdict is a
				// fail-closed kill, and the two ledgers must agree.
				if ar.st.Killed != (ar.g.Stats.FailClosures > 0) {
					t.Fatalf("kill (%v) disagrees with FailClosures (%d)",
						ar.st.Killed, ar.g.Stats.FailClosures)
				}
			}
		})
	}
}

// TestAsyncPoolGoroutinesExit: closing a pool — directly, or through
// KernelModule.Shutdown for a pool the module created on demand — leaves
// none of its goroutines running. A pool starts exactly its workers. The
// count is the pool's own (each worker counts itself in when it starts
// and out before Close's wait returns), so goroutines of other tests
// cannot shift it.
func TestAsyncPoolGoroutinesExit(t *testing.T) {
	// started polls, with a bound, until the pool's workers have all
	// started, and fails if more than want ever run.
	started := func(t *testing.T, p *guard.AsyncPool, want int) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for {
			n := guard.AsyncPoolWorkers(p)
			if n > want {
				t.Fatalf("pool runs %d workers, want %d", n, want)
			}
			if n == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pool started %d workers in 2s, want %d", n, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stopped := func(t *testing.T, p *guard.AsyncPool) {
		t.Helper()
		if n := guard.AsyncPoolWorkers(p); n != 0 {
			t.Fatalf("%d workers still running after the pool closed", n)
		}
	}
	t.Run("Close", func(t *testing.T) {
		p := guard.NewAsyncPool(3)
		started(t, p, 3)
		p.Close()
		stopped(t, p)
	})
	t.Run("Shutdown", func(t *testing.T) {
		a := analyze(t, apps.Vulnd())
		k := kernelsim.New()
		p, err := a.app.Spawn(k, benignTraffic())
		if err != nil {
			t.Fatal(err)
		}
		km := guard.InstallModule(k)
		pol := guard.DefaultPolicy()
		pol.Async = true
		pol.AsyncWorkers = 2
		if _, err := km.Protect(p, a.ocfg, a.ig, pol); err != nil {
			t.Fatal(err)
		}
		pool := guard.ModuleAsyncPool(km)
		if pool == nil {
			t.Fatal("Protect created no async pool")
		}
		started(t, pool, 2)
		if _, err := k.Run(p, 80_000_000); err != nil {
			t.Fatal(err)
		}
		km.Shutdown()
		stopped(t, pool)
	})
}

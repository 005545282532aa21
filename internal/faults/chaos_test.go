package faults_test

// Chaos soak: seeded fault plans × degraded-mode policies × workloads
// (benign traffic and real attacks), run end to end through the kernel
// module. The soak pins the two robustness guarantees of the degraded
// checking design: no fault plan can panic the guard, and injected
// attacks are still detected in every degraded mode except an explicit
// fail-open window. A companion test saturates a one-slot FleetPool and
// verifies that every check waits for its slot and is fully accounted —
// never shed, never silent.

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/cfg"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

const ctlTrace = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// fixture is the offline phase, shared across every soak scenario: the
// CFG depends only on the deterministic binaries, so one analysis and
// one training pass serve all runs.
type fixture struct {
	app  *apps.App
	ocfg *cfg.Graph
	ig   *itc.Graph
	rop  []byte
	srop []byte
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func chaosFixture(t *testing.T) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		app := apps.Vulnd()
		as, err := app.Load()
		if err != nil {
			fixErr = err
			return
		}
		g, err := cfg.Build(as)
		if err != nil {
			fixErr = err
			return
		}
		f := &fixture{app: app, ocfg: g, ig: itc.FromCFG(g)}
		if f.rop, err = attack.BuildROPWrite(as); err != nil {
			fixErr = err
			return
		}
		if f.srop, err = attack.BuildSROP(as); err != nil {
			fixErr = err
			return
		}
		for _, in := range [][]byte{benignTraffic(), []byte("G /x\nP 32\nH /h\n")} {
			k := kernelsim.New()
			p, err := app.Spawn(k, in)
			if err != nil {
				fixErr = err
				return
			}
			tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
			if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
				fixErr = err
				return
			}
			p.CPU.Branch = tr
			if st, err := k.Run(p, 50_000_000); err != nil || !st.Exited {
				fixErr = err
				return
			}
			tr.Flush()
			evs, err := ipt.DecodeFast(tr.Out.Snapshot())
			if err != nil {
				fixErr = err
				return
			}
			f.ig.ObserveWindow(ipt.ExtractTIPs(evs))
		}
		f.ig.RebuildCache()
		fix = f
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fix
}

func benignTraffic() []byte {
	return []byte("G /index\nG /api/v1/users\nH /health\nP 128\nG /about\nG /static/logo\nP 256\nG /index2\n")
}

// scenario is one soak run: a workload under one degraded-mode policy
// with one fault plan wired into the tracer's write path — and, for
// async scenarios, the same plan wired into the worker pool's fault
// hooks (WorkerStall/WorkerCrash).
type scenario struct {
	seed   int64
	mode   guard.DegradedMode
	attack bool // workload is an exploit payload, not benign traffic
	async  bool // run the asynchronous checking pipeline
}

// runScenario executes one protected run with the plan injected and
// returns the exit status, the guard, and the plan.
func runScenario(t *testing.T, f *fixture, sc scenario) (kernelsim.ExitStatus, *guard.Guard, *faults.Plan) {
	t.Helper()
	input := benignTraffic()
	if sc.async && !sc.attack {
		// Async scenarios need enough trace to fill 8 KiB ToPA regions,
		// or the capture path (and its worker-fault hooks) never fires.
		// Safe requests only: repeating payload requests overflows the
		// server by itself.
		input = []byte(strings.Repeat("G /index\nG /api/v1/users\nH /health\n", 8))
	}
	if sc.attack {
		if (sc.seed/2)%2 == 0 {
			input = f.rop
		} else {
			input = f.srop
		}
	}
	k := kernelsim.New()
	p, err := f.app.Spawn(k, input)
	if err != nil {
		t.Fatal(err)
	}
	km := guard.InstallModule(k)
	pol := guard.DefaultPolicy()
	pol.OnDegraded = sc.mode
	pol.Async = sc.async
	plan := faults.FromSeed(sc.seed)
	var ap *guard.AsyncPool
	if sc.async {
		ap = guard.NewAsyncPool(2)
		ap.InjectFaults(plan)
		km.UseAsync(ap)
	}
	g, err := km.Protect(p, f.ocfg, f.ig, pol)
	if err != nil {
		t.Fatal(err)
	}
	g.Tracer.Fault = plan
	st, err := k.Run(p, 80_000_000)
	km.Shutdown()
	if ap != nil {
		ap.Close()
	}
	if err != nil {
		t.Fatalf("seed %d mode %v attack %v async %v: run aborted: %v", sc.seed, sc.mode, sc.attack, sc.async, err)
	}
	return st, g, plan
}

// TestChaosSoak sweeps seeded fault plans across the three degraded
// modes and both workload classes, in parallel. Any panic anywhere in
// the pipeline fails the test; the per-scenario assertions pin the
// security (attacks detected) and availability (benign loss-only runs
// survive fail-open) halves of the policy contract.
func TestChaosSoak(t *testing.T) {
	f := chaosFixture(t)
	n := int64(1002)
	if testing.Short() {
		n = 120
	}
	modes := []guard.DegradedMode{guard.FailClosed, guard.SlowPathRetry, guard.FailOpen}

	var mu sync.Mutex
	var degraded, retries, failOpens, failClosures uint64
	var asyncRuns, asyncWindows, workerFaults, workerCrashes uint64

	seeds := make(chan int64)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := range seeds {
				// Mode cycles with period 3, workload with period 2, and
				// the async pipeline with period 6 × 2, so every mode
				// meets both workload classes both sync and async
				// (full combination period 12).
				sc := scenario{
					seed:   seed,
					mode:   modes[seed%int64(len(modes))],
					attack: seed%2 == 1,
					async:  (seed/6)%2 == 0,
				}
				st, g, plan := runScenario(t, f, sc)
				if sc.attack && sc.mode != guard.FailOpen && !st.Killed {
					t.Errorf("seed %d mode %v async %v: attack not detected (plan %+v, status %v)",
						seed, sc.mode, sc.async, plan.Config(), st)
				}
				if !sc.attack && sc.mode == guard.FailOpen && !plan.Corrupting() && !st.Exited {
					t.Errorf("seed %d fail-open async %v: benign loss-only run did not survive (plan %+v, status %v)",
						seed, sc.async, plan.Config(), st)
				}
				counts := plan.Counts()
				mu.Lock()
				degraded += g.Stats.DegradedChecks
				retries += g.Stats.Retries
				failOpens += g.Stats.FailOpens
				failClosures += g.Stats.FailClosures
				if sc.async {
					asyncRuns++
					asyncWindows += g.Stats.AsyncWindows
					workerFaults += counts[faults.WorkerStall] + counts[faults.WorkerCrash]
					workerCrashes += g.Stats.WorkerCrashes
				}
				mu.Unlock()
			}
		}()
	}
	for seed := int64(0); seed < n; seed++ {
		seeds <- seed
	}
	close(seeds)
	wg.Wait()

	if degraded == 0 {
		t.Error("soak never degraded a check; fault injection is not reaching the guard")
	}
	if asyncRuns == 0 || asyncWindows == 0 {
		t.Errorf("soak ran %d async scenarios capturing %d windows; the pipeline is not being exercised",
			asyncRuns, asyncWindows)
	}
	if !testing.Short() && workerFaults == 0 {
		t.Error("full soak never drew a worker-side fault; WorkerStall/WorkerCrash plans are not folded in")
	}
	t.Logf("%d scenarios (%d async): degraded=%d retries=%d failOpens=%d failClosures=%d asyncWindows=%d workerFaults=%d workerCrashes=%d",
		n, asyncRuns, degraded, retries, failOpens, failClosures, asyncWindows, workerFaults, workerCrashes)
}

// recordTrace runs the app on input with a bare tracer attached and
// returns everything the trace unit wrote (a hijacked run may crash once
// its payload is done, so the status is not checked).
func recordTrace(t *testing.T, f *fixture, input []byte) []byte {
	t.Helper()
	k := kernelsim.New()
	p, err := f.app.Spawn(k, input)
	if err != nil {
		t.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	p.CPU.Branch = tr
	if _, err := k.Run(p, 80_000_000); err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	return tr.Out.Snapshot()
}

// TestChaosPoolOverload saturates a one-shard, one-slot FleetPool with
// stalled checks from concurrently checking processes: each goroutine
// replays a recorded trace into its own guard's ToPA in 512-byte chunks
// and checks through the shared pool after every chunk, as its own
// tenant, stopping at its first violation as a SIGKILL would. A check
// within its tenant's fair share waits for its slot however long the
// stalls make it, so the pool must neither deadlock nor shed: every
// chunk offered is admitted and checked, the guards' statistics agree
// with the pool's, and the attacks are detected.
func TestChaosPoolOverload(t *testing.T) {
	f := chaosFixture(t)
	bin := guard.NewBinary(f.ocfg.AS, f.ocfg, f.ig.Artifact())
	benign := recordTrace(t, f, benignTraffic())
	hijacked := recordTrace(t, f, f.rop)
	const chunk = 512
	pool := guard.NewFleetPool(1, 1)
	stallPlan := faults.New(faults.Config{
		Seed:     42,
		Rates:    stallAlways(),
		StallFor: 2 * time.Millisecond,
	})
	pool.Hold = func(int) { time.Sleep(stallPlan.Stall()) }

	const procsN = 6
	guards := make([]*guard.Guard, procsN)
	killed := make([]bool, procsN)
	offered := make([]uint64, procsN)
	var wg sync.WaitGroup
	for i := range guards {
		raw := benign
		if i%3 == 0 {
			raw = hijacked
		}
		tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
		guards[i] = bin.NewGuard(tr, guard.DefaultPolicy())
		wg.Add(1)
		go func(i int, g *guard.Guard, raw []byte) {
			defer wg.Done()
			tenant := fmt.Sprintf("proc-%d", i)
			for lo := 0; lo < len(raw) && !killed[i]; lo += chunk {
				g.Tracer.Out.Write(raw[lo:min(lo+chunk, len(raw))])
				offered[i]++
				killed[i] = pool.Do(tenant, g).Verdict == guard.VerdictViolation
			}
		}(i, guards[i], raw)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("pool overload deadlocked")
	}

	for i := range guards {
		if i%3 == 0 && !killed[i] {
			t.Errorf("attack process %d not detected under overload", i)
		}
	}
	ps := pool.Snapshot()
	var guardChecks, chunks uint64
	for i, g := range guards {
		guardChecks += g.Stats.Checks
		chunks += offered[i]
	}
	if ps.Shed != 0 {
		t.Errorf("the pool shed %d checks; a check within its fair share must wait for its slot", ps.Shed)
	}
	if ps.Checks != chunks || guardChecks != chunks {
		t.Errorf("%d chunks offered, %d admitted, %d guard checks: checks dropped silently",
			chunks, ps.Checks, guardChecks)
	}
	if counts := stallPlan.Counts(); counts[faults.Stall] != ps.Checks {
		t.Errorf("%d stalls for %d admitted checks; every admission consults the stall hook", counts[faults.Stall], ps.Checks)
	}
	t.Logf("admitted=%d guardChecks=%d chunks=%d", ps.Checks, guardChecks, chunks)
}

func stallAlways() [faults.NumKinds]float64 {
	var r [faults.NumKinds]float64
	r[faults.Stall] = 1
	return r
}

// TestChaosDecoderSoak is the cheap wide sweep: thousands of seeded
// plans against the raw encode/decode pipeline (no kernel, no guard).
// Decode errors are legal outcomes under corruption; panics are not.
func TestChaosDecoderSoak(t *testing.T) {
	n := int64(3000)
	if testing.Short() {
		n = 600
	}
	for seed := int64(0); seed < n; seed++ {
		plan := faults.FromSeed(seed)
		tr := ipt.NewTracer(ipt.NewToPA(4096, 4096))
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
			t.Fatal(err)
		}
		tr.Fault = plan
		for i := 0; i < 300; i++ {
			addr := uint64(0x400000 + (seed*131+int64(i)*17)%8192*4)
			tr.Branch(trace.Branch{Class: isa.CoFIIndirect, Source: addr, Target: addr, Taken: true})
			if i%5 == 0 {
				tr.Branch(trace.Branch{Class: isa.CoFICond, Source: addr, Target: addr + 4, Taken: i%2 == 0})
			}
		}
		tr.Flush()
		buf := tr.Out.Snapshot()
		if evs, err := ipt.DecodeFast(buf); err == nil {
			ipt.ExtractTIPs(evs)
		}
		d := ipt.NewWindowDecoder(0)
		chunk := 1 + int(seed%97)
		for lo := 0; lo < len(buf); lo += chunk {
			hi := lo + chunk
			if hi > len(buf) {
				hi = len(buf)
			}
			if err := d.Feed(buf[lo:hi]); err != nil {
				break // malformed: a legal outcome, not a panic
			}
		}
	}
}

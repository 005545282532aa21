package guard_test

import (
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// sharedCore wires one trace unit (one core) to several interleaved
// processes, with the kernel reprogramming the unit's CR3 view at every
// context switch — the real deployment shape §5.1 describes and the
// single-CR3-filter limitation §6 suggestion 2 addresses.
func sharedCore(k *kernelsim.Kernel, tr *ipt.Tracer, procs ...*kernelsim.Process) {
	for _, p := range procs {
		if p.CPU.Branch != nil {
			p.CPU.Branch = trace.MultiSink{p.CPU.Branch, tr}
		} else {
			p.CPU.Branch = tr
		}
	}
	k.OnCoreSwitch = func(_ int, p *kernelsim.Process, _ *kernelsim.Thread) { tr.SetCR3(p.CR3) }
}

// TestCR3FilterIsolatesInterleavedProcesses: with the filter set to A's
// CR3, an interleaved run traces exactly what A alone would produce.
func TestCR3FilterIsolatesInterleavedProcesses(t *testing.T) {
	app := apps.Vulnd()
	inA := []byte("G /index\nG /about\n")
	inB := []byte("H /x\nG /static/zzz\nG /q\n")

	// Reference: A alone.
	kRef := kernelsim.New()
	pRef, err := app.Spawn(kRef, inA)
	if err != nil {
		t.Fatal(err)
	}
	trRef := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := trRef.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	pRef.CPU.Branch = trRef
	if st, err := kRef.Run(pRef, 50_000_000); err != nil || !st.Exited {
		t.Fatalf("reference run: %v %v", st, err)
	}
	refTIPs := trRef.TIPCount

	// Interleaved: A and B share the core; the filter tracks A.
	k := kernelsim.New()
	pA, err := app.Spawn(k, inA)
	if err != nil {
		t.Fatal(err)
	}
	pB, err := app.Spawn(k, inB)
	if err != nil {
		t.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace|ipt.CtlCR3Filter); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMSR(ipt.MSRRTITCR3Match, pA.CR3); err != nil {
		t.Fatal(err)
	}
	sharedCore(k, tr, pA, pB)
	sts, err := k.RunMulticore([]*kernelsim.Process{pA, pB}, 1, 512, 200_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if !st.Exited {
			t.Fatalf("proc %d: %v", i, st)
		}
	}
	if tr.TIPCount != refTIPs {
		t.Errorf("filtered interleaved TIPs = %d, want A-alone count %d", tr.TIPCount, refTIPs)
	}
	// And the unfiltered variant sees strictly more.
	k2 := kernelsim.New()
	pA2, _ := app.Spawn(k2, inA)
	pB2, _ := app.Spawn(k2, inB)
	tr2 := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr2.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	sharedCore(k2, tr2, pA2, pB2)
	if _, err := k2.RunMulticore([]*kernelsim.Process{pA2, pB2}, 1, 512, 200_000_000); err != nil {
		t.Fatal(err)
	}
	if tr2.TIPCount <= refTIPs {
		t.Errorf("unfiltered interleaved TIPs = %d, want > %d", tr2.TIPCount, refTIPs)
	}
}

// TestSingleCR3FilterLimitation demonstrates why §6 asks for multi-CR3
// filtering: on a shared core protecting process A, an attack against
// the *other* process B is invisible, while the same attack against A is
// killed.
func TestSingleCR3FilterLimitation(t *testing.T) {
	app := apps.Vulnd()
	an := analyze(t, app)
	an.train(t, benignTraffic())
	as, _ := app.Load()
	payload, err := attack.BuildROPWrite(as)
	if err != nil {
		t.Fatal(err)
	}

	run := func(attackA bool) (aKilled, bKilled bool, reports []guard.ViolationReport) {
		k := kernelsim.New()
		inA, inB := benignTraffic(), benignTraffic()
		if attackA {
			inA = payload
		} else {
			inB = payload
		}
		pA, err := app.Spawn(k, inA)
		if err != nil {
			t.Fatal(err)
		}
		pB, err := app.Spawn(k, inB)
		if err != nil {
			t.Fatal(err)
		}
		// One core: a single tracer, CR3-filtered to A, checked at A's
		// endpoints only.
		tr := ipt.NewTracer(ipt.NewToPA(16 << 10))
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace|ipt.CtlCR3Filter); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteMSR(ipt.MSRRTITCR3Match, pA.CR3); err != nil {
			t.Fatal(err)
		}
		sharedCore(k, tr, pA, pB)
		g := guard.New(pA.AS, an.ocfg, an.ig, tr, guard.DefaultPolicy())
		var reps []guard.ViolationReport
		for _, sysno := range guard.DefaultEndpoints() {
			k.Intercept(sysno, func(p *kernelsim.Process, sysno uint64) error {
				if p != pA {
					return nil // only A is protected
				}
				res := g.Check()
				if res.Verdict == guard.VerdictViolation {
					reps = append(reps, guard.ViolationReport{
						PID: p.PID, Process: p.Name, Syscall: sysno, Reason: res.Reason,
					})
					k.Kill(p, kernelsim.SIGKILL)
					return kernelsim.ErrKilled
				}
				return nil
			})
		}
		sts, err := k.RunMulticore([]*kernelsim.Process{pA, pB}, 1, 512, 500_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return sts[0].Killed, sts[1].Killed, reps
	}

	// Attack on the protected process: detected despite the interleaved
	// noise (the CR3 filter keeps B out of A's trace).
	aKilled, bKilled, reps := run(true)
	if !aKilled {
		t.Error("attack on the protected process was missed")
	}
	if bKilled {
		t.Error("benign sibling was killed")
	}
	if len(reps) == 0 {
		t.Error("no violation report for the protected process")
	}

	// Attack on the unprotected sibling: sails through — the single-CR3
	// limitation the paper's hardware suggestion fixes.
	aKilled, bKilled, reps = run(false)
	if aKilled || bKilled {
		t.Error("someone was killed, but B is outside the protection domain")
	}
	if len(reps) != 0 {
		t.Errorf("unexpected reports: %v", reps)
	}
}

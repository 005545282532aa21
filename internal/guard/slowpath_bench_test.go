package guard

// Layer benchmark of the whole precise check (§5.3) as a cold start
// runs it: an untrained nginx guard is driven through one session, the
// windows its endpoint checks forward to the slow path are recorded, and
// each op re-runs the slow path over the next of them — the
// block-stepping flow walk pulling packets straight from the region
// bytes, O-CFG edge checks, the shadow stack and the approval step. The
// guard's chain memo is warm from the session;
// BenchmarkGuardSlowPathColdMemo gives every op a fresh one, as the
// first check of a new guard has. instrs/op is the number of
// instructions the walk retires per check, the input of the cycle
// model; yields/op is the number of edges the walk hands the slow
// path's own checks, every edge but the direct and conditional ones the
// O-CFG accepted inside the walk. BenchmarkGuardSlowPath is a tier-1
// benchmark (perfstat.Tier1Names): fgperf -short runs it, and the gate
// covers it once the baseline holds it. The ColdMemo variant is in
// fgperf's full suite only.

import (
	"fmt"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// slowWindow is one window an endpoint check forwarded to the slow path.
type slowWindow struct {
	tips   []ipt.TIPRecord
	region []byte
}

// recordSlowWindows drives an untrained guard of app through one session
// on input and returns the guard with the windows its endpoint checks
// forwarded to the slow path. Kernel-performed transfers (signal
// delivery, sigreturn) reach the trace as async FUP+TIP pairs.
func recordSlowWindows(tb testing.TB, app *apps.App, input []byte) (*Guard, []slowWindow) {
	tb.Helper()
	k := kernelsim.New()
	p, err := app.Spawn(k, input)
	if err != nil {
		tb.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		tb.Fatal(err)
	}
	p.CPU.Branch = tr
	k.OnAsyncFlow = func(_ *kernelsim.Process, from, to uint64) { tr.AsyncEvent(from, to) }
	ocfg, err := cfg.Build(p.AS)
	if err != nil {
		tb.Fatal(err)
	}
	// The untrained static ITC-CFG: every label is low-credit, so the
	// windows are the kind cold-start forwards to the slow path.
	g := New(p.AS, ocfg, itc.FromCFG(ocfg), tr, DefaultPolicy())
	var slow []slowWindow
	for _, sysno := range g.Policy.Endpoints {
		k.Intercept(sysno, func(*kernelsim.Process, uint64) error {
			tips, psb, _, _, err := g.window(&g.main)
			if err != nil {
				return err
			}
			var res Result
			g.runChecks(&res, &g.main, tips, psb)
			if res.Verdict != VerdictClean {
				return fmt.Errorf("benign window judged %v: %s", res.Verdict, res.Reason)
			}
			if res.UsedSlowPath {
				region, _ := tr.Out.AppendSince(nil, psb)
				slow = append(slow, slowWindow{append([]ipt.TIPRecord(nil), tips...), region})
			}
			return nil
		})
	}
	if st, err := k.Run(p, 50_000_000); err != nil || !st.Exited {
		tb.Fatalf("run: %v %v %v", st, err, k.InterceptErrors())
	}
	if len(slow) == 0 {
		tb.Fatal("no endpoint check took the slow path")
	}
	return g, slow
}

// yields returns the number of edges the flow walk hands slowPath over
// w: every edge but the direct and conditional ones the O-CFG accepts.
func yields(tb testing.TB, g *Guard, w slowWindow) uint64 {
	wk, err := ipt.NewFlowWalk(g.AS, w.region, 0)
	if err != nil {
		tb.Fatal(err)
	}
	wk.CheckDirect(ipt.NewChainMemo(g.OCFG))
	n := uint64(0)
	for wk.Next() {
		n++
	}
	return n
}

func BenchmarkGuardSlowPath(b *testing.B)         { benchSlowPath(b, false) }
func BenchmarkGuardSlowPathColdMemo(b *testing.B) { benchSlowPath(b, true) }

// benchSlowPath runs the slow path over recorded windows, with a fresh
// chain memo for every op when coldMemo is set. instrs/op and yields/op
// are exact per-window means over one pass of the windows, taken before
// the timer starts, so they do not move with b.N.
func benchSlowPath(b *testing.B, coldMemo bool) {
	app := apps.Nginx()
	g, slow := recordSlowWindows(b, app, app.MakeInput(30, 1))
	var instrs, yielded uint64
	for _, w := range slow {
		if coldMemo {
			g.slowMemo = nil
		}
		var res Result
		g.slowCheck(&res, nil, w.tips, w.region, 0)
		instrs += res.SlowCycles / ipt.CyclesPerDecodedInstr
		yielded += yields(b, g, w)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := slow[i%len(slow)]
		if coldMemo {
			g.slowMemo = nil
		}
		var res Result
		g.slowCheck(&res, nil, w.tips, w.region, 0)
		if res.Verdict != VerdictClean {
			b.Fatalf("benign window judged %v: %s", res.Verdict, res.Reason)
		}
	}
	b.ReportMetric(float64(instrs)/float64(len(slow)), "instrs/op")
	b.ReportMetric(float64(yielded)/float64(len(slow)), "yields/op")
}

// TestSlowPathAllocatesNothing: once the guard's chain memo has seen
// every window, the slow path over clean windows allocates nothing —
// neither memo rows nor anything per packet or per edge.
func TestSlowPathAllocatesNothing(t *testing.T) {
	app := apps.Nginx()
	g, slow := recordSlowWindows(t, app, app.MakeInput(5, 1))
	for _, w := range slow {
		var res Result
		g.slowCheck(&res, nil, w.tips, w.region, 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(2*len(slow), func() {
		w := slow[i%len(slow)]
		i++
		var res Result
		g.slowCheck(&res, nil, w.tips, w.region, 0)
		if res.Verdict != VerdictClean {
			t.Fatalf("benign window judged %v: %s", res.Verdict, res.Reason)
		}
	})
	if allocs != 0 {
		t.Fatalf("slow path over %d clean windows: %.1f allocations per check, want 0", len(slow), allocs)
	}
}

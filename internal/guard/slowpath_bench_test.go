package guard

// Layer benchmark of the whole precise check (§5.3) as a cold start
// runs it: an untrained nginx guard is driven through one session, the
// windows its endpoint checks forward to the slow path are recorded, and
// each op re-runs the slow path over the next of them — fast decode, the
// block-stepping flow walk, O-CFG edge checks, the shadow stack and the
// approval step. instrs/op is the number of instructions the walk
// retires per check, the input of the cycle model. In fgperf's full
// suite only (not a tier-1 benchmark).

import (
	"fmt"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

func BenchmarkGuardSlowPath(b *testing.B) {
	app := apps.Nginx()
	k := kernelsim.New()
	p, err := app.Spawn(k, app.MakeInput(30, 1))
	if err != nil {
		b.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		b.Fatal(err)
	}
	p.CPU.Branch = tr
	ocfg, err := cfg.Build(p.AS)
	if err != nil {
		b.Fatal(err)
	}
	// The untrained static ITC-CFG: every label is low-credit, so the
	// windows are the kind cold-start forwards to the slow path.
	g := New(p.AS, ocfg, itc.FromCFG(ocfg), tr, DefaultPolicy())
	type window struct {
		tips   []ipt.TIPRecord
		region []byte
	}
	var slow []window
	for _, sysno := range g.Policy.Endpoints {
		k.Intercept(sysno, func(*kernelsim.Process, uint64) error {
			tips, region, _, _, err := g.window(&g.main)
			if err != nil {
				return err
			}
			var res Result
			g.runChecks(&res, tips, region, false)
			if res.Verdict != VerdictClean {
				return fmt.Errorf("benign window judged %v: %s", res.Verdict, res.Reason)
			}
			if res.UsedSlowPath {
				slow = append(slow, window{append([]ipt.TIPRecord(nil), tips...), append([]byte(nil), region...)})
			}
			return nil
		})
	}
	if st, err := k.Run(p, 50_000_000); err != nil || !st.Exited {
		b.Fatalf("run: %v %v %v", st, err, k.InterceptErrors())
	}
	if len(slow) == 0 {
		b.Fatal("no endpoint check took the slow path")
	}

	b.ReportAllocs()
	b.ResetTimer()
	var instrs uint64
	for i := 0; i < b.N; i++ {
		w := slow[i%len(slow)]
		var res Result
		g.slowPath(&res, w.tips, w.region)
		if res.Verdict != VerdictClean {
			b.Fatalf("benign window judged %v: %s", res.Verdict, res.Reason)
		}
		instrs += res.SlowCycles / ipt.CyclesPerDecodedInstr
	}
	b.ReportMetric(float64(instrs)/float64(b.N), "instrs/op")
}

package guard_test

// Throughput benchmark of the bounded checker-core pool (§6): guards
// for a fleet of traced vulnd processes push steady-state endpoint
// checks through a one-shard FleetPool, each guard its own tenant so
// that fairness never sheds, and the workers axis shows how checking
// capacity scales with dedicated cores. Tier-1 in fgperf's regression
// gate: a regression here means the pool's admission machinery (slot
// channel, shard mutex) got more expensive relative to the checks it
// schedules.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// poolBench caches the offline phase for the pool benchmarks: one
// analysis plus training pass, shared by every sub-benchmark (the same
// offline/online split analyze/train give the tests, but usable from a
// *testing.B).
var poolBench struct {
	once sync.Once
	err  error
	app  *apps.App
	as   *module.AddressSpace
	ocfg *cfg.Graph
	ig   *itc.Graph
}

func poolBenchSetup(b *testing.B) {
	b.Helper()
	poolBench.once.Do(func() {
		app := apps.Vulnd()
		as, err := app.Load()
		if err != nil {
			poolBench.err = err
			return
		}
		ocfg, err := cfg.Build(as)
		if err != nil {
			poolBench.err = err
			return
		}
		ig := itc.FromCFG(ocfg)
		for _, in := range [][]byte{benignTraffic(), []byte("G /x\nP 32\nH /h\n")} {
			k := kernelsim.New()
			p, err := app.Spawn(k, in)
			if err != nil {
				poolBench.err = err
				return
			}
			tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
			if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
				poolBench.err = err
				return
			}
			p.CPU.Branch = tr
			if st, err := k.Run(p, 50_000_000); err != nil || !st.Exited {
				poolBench.err = fmt.Errorf("training run: %v %v", st, err)
				return
			}
			tr.Flush()
			evs, err := ipt.DecodeFast(tr.Out.Snapshot())
			if err != nil {
				poolBench.err = err
				return
			}
			if !ig.ObserveWindow(ipt.ExtractTIPs(evs)) {
				poolBench.err = fmt.Errorf("training observed an edge outside the ITC-CFG")
				return
			}
		}
		ig.RebuildCache()
		poolBench.app, poolBench.as, poolBench.ocfg, poolBench.ig = app, as, ocfg, ig
	})
	if poolBench.err != nil {
		b.Fatal(poolBench.err)
	}
}

// newTracedGuard runs one benign vulnd instance to completion with a
// tracer attached and returns a guard over the recorded trace. The
// first Check decodes the window incrementally; after that the stream
// is static, so every pooled check measures the steady-state fast loop
// plus the pool's admission overhead.
func newTracedGuard(b *testing.B) *guard.Guard {
	b.Helper()
	k := kernelsim.New()
	p, err := poolBench.app.Spawn(k, benignTraffic())
	if err != nil {
		b.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(1 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		b.Fatal(err)
	}
	p.CPU.Branch = tr
	if st, err := k.Run(p, 80_000_000); err != nil || !st.Exited {
		b.Fatalf("traced run: %v %v", st, err)
	}
	tr.Flush()
	return guard.New(poolBench.as, poolBench.ocfg, poolBench.ig, tr, guard.DefaultPolicy())
}

func BenchmarkCheckPoolThroughput(b *testing.B) {
	poolBenchSetup(b)
	for _, workers := range []int{1, 2, 4} {
		// "w1" not "workers-1": a trailing -<digits> would be
		// indistinguishable from the -GOMAXPROCS suffix fgperf's
		// parser strips to keep artifacts machine-portable.
		b.Run(fmt.Sprintf("w%d", workers), func(b *testing.B) {
			pool := guard.NewFleetPool(1, workers)
			shared := guard.NewApprovalCache()
			fleet := runtime.GOMAXPROCS(0)
			type proc struct {
				tenant string
				g      *guard.Guard
			}
			procs := make(chan proc, fleet)
			for i := 0; i < fleet; i++ {
				g := newTracedGuard(b)
				g.ShareApprovals(shared)
				// Absorb the one-time window decode (and any first
				// slow path) so the measured loop is steady state.
				if res := g.Check(); res.Verdict != guard.VerdictClean {
					b.Fatalf("priming check: %+v", res)
				}
				procs <- proc{fmt.Sprintf("proc-%d", i), g}
			}
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				p := <-procs
				defer func() { procs <- p }()
				for pb.Next() {
					if res := pool.Do(p.tenant, p.g); res.Verdict != guard.VerdictClean {
						b.Errorf("benign steady-state check: %+v", res)
						return
					}
				}
			})
			b.StopTimer()
			ps := pool.Snapshot()
			if ps.Shed != 0 {
				b.Fatalf("pool shed %d checks of tenants within their fair share", ps.Shed)
			}
		})
	}
}

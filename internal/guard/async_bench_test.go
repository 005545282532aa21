package guard

// Syscall-blocked-time benchmark for the asynchronous checking pipeline
// (DESIGN.md §9), tier-1 in fgperf's regression gate. Each iteration
// emits the trace backlog that accumulates between endpoints OFF the
// clock, then times only Check() — the work holding the intercepted
// syscall. The sync variant decodes the whole backlog on that critical
// path; w1/w4 attach a worker pool that drains region-full captures
// while the backlog is produced, so the gate decodes only the residual
// tail. The w1→w4 axis shows how the gate's residual shrinks with
// checking cores.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// asyncGateBench caches the offline phase: a synthetic two-node O-CFG
// over the window fixture's branch sites (the module layout is
// deterministic, so one trained ITC graph serves every sub-benchmark's
// fixture) with the emission pattern's three edges trained to high
// credit.
var asyncGateBench struct {
	once      sync.Once
	err       error
	ocfg      *cfg.Graph
	ig        *itc.Graph
	exec, lib uint64
}

// emitGatePattern pushes n synthetic indirect branches alternating the
// executable and library sites — the same mix the training pass
// observed, so steady-state checks stay on the fast loop.
func emitGatePattern(f *windowFixture, n int) {
	f.emitSpan(n)
	f.tr.Flush()
}

func asyncGateSetup(tb testing.TB) {
	tb.Helper()
	asyncGateBench.once.Do(func() {
		f := newWindowFixture(tb, DefaultPolicy())
		ocfg := cfg.Synthetic([]*cfg.Block{
			{Start: f.exec, End: f.exec + 8, Kind: cfg.TermIndJmp, TermAddr: f.exec, IndTargets: []uint64{f.exec, f.lib}},
			{Start: f.lib, End: f.lib + 8, Kind: cfg.TermIndJmp, TermAddr: f.lib, IndTargets: []uint64{f.exec, f.lib}},
		})
		ig := itc.FromCFG(ocfg)
		emitGatePattern(f, 4000)
		evs, err := ipt.DecodeFast(f.tr.Out.Snapshot())
		if err != nil {
			asyncGateBench.err = err
			return
		}
		if !ig.ObserveWindow(ipt.ExtractTIPs(evs)) {
			tb.Fatal("training observed an edge outside the synthetic ITC-CFG")
		}
		ig.RebuildCache()
		asyncGateBench.ocfg, asyncGateBench.ig = ocfg, ig
		asyncGateBench.exec, asyncGateBench.lib = f.exec, f.lib
	})
	if asyncGateBench.err != nil {
		tb.Fatal(asyncGateBench.err)
	}
}

func BenchmarkAsyncSyscallGate(b *testing.B) {
	asyncGateSetup(b)
	run := func(b *testing.B, workers int) {
		pol := DefaultPolicy()
		pol.PktCount = 8
		pol.Async = workers > 0
		f := newWindowFixture(b, pol)
		if f.exec != asyncGateBench.exec || f.lib != asyncGateBench.lib {
			b.Fatal("fixture layout not deterministic; trained graph does not apply")
		}
		f.g.OCFG, f.g.ITC = asyncGateBench.ocfg, asyncGateBench.ig
		// Eight 2 KiB regions: the deployed two-region capacity (16 KiB,
		// kernelmodule §5.1) but with captures firing at 2 KiB
		// granularity, so one between-endpoints backlog spans several
		// pipeline windows.
		f.tr.Out = ipt.NewToPA(2<<10, 2<<10, 2<<10, 2<<10, 2<<10, 2<<10, 2<<10, 2<<10)
		f.tr.PSBPeriod = 1024
		if workers > 0 {
			ap := NewAsyncPool(workers)
			defer ap.Close()
			f.g.EnableAsync(ap)
		}
		emitGatePattern(f, 4000) // warm the decoder's incremental window
		if res := f.g.Check(); res.Verdict != VerdictClean {
			b.Fatalf("priming check: %+v", res)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			emitGatePattern(f, 1500) // between-endpoints backlog, off the clock
			if workers > 0 {
				// The inter-endpoint interval: a real workload executes
				// between syscalls, which is the wall-clock the pipeline
				// overlaps its decoding with. Bounded so a wedged pool
				// fails loudly instead of hanging the benchmark.
				const settleLag = 1 // captured windows left to the timed gate
				for settle := time.Now(); f.g.AsyncPending() > settleLag; {
					if time.Since(settle) > time.Second {
						b.Fatal("pool never caught up with the backlog")
					}
					runtime.Gosched()
				}
			}
			b.StartTimer()
			if res := f.g.Check(); res.Verdict != VerdictClean {
				b.Fatalf("steady-state check: %+v", res)
			}
		}
		b.StopTimer()
		if workers > 0 && f.g.Stats.AsyncWindows == 0 {
			b.Fatal("async run captured no windows; the pipeline was idle")
		}
		if f.g.Stats.Resyncs != 0 {
			b.Fatalf("backlog wrapped the buffer %d times; the benchmark is no longer incremental", f.g.Stats.Resyncs)
		}
	}
	// Sub-benchmark names carry no trailing -<digits>: that suffix is
	// indistinguishable from the -GOMAXPROCS one fgperf strips.
	b.Run("sync", func(b *testing.B) { run(b, 0) })
	b.Run("w1", func(b *testing.B) { run(b, 1) })
	b.Run("w4", func(b *testing.B) { run(b, 4) })
}

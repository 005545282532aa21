// Package-level benchmarks: one testing.B entry per paper table/figure,
// measuring the wall-clock cost of this implementation's pieces. The
// paper-shaped numbers (overhead percentages, ratios) come from the
// calibrated cycle model and are regenerated by `go run ./cmd/fgbench
// -all`; these benchmarks provide the complementary real-time view and
// catch performance regressions in the reproduction itself.
package flowguard_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"flowguard"
	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/cfg"
	"flowguard/internal/cpu"
	"flowguard/internal/fuzz"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace/bts"
	"flowguard/internal/trace/ipt"
	"flowguard/internal/trace/lbr"
)

const benchScale = 8

const ctlTrace = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// fixtures are built once and shared across benchmarks.
var fx struct {
	once sync.Once

	nginx     *apps.App
	nginxAS   *module.AddressSpace
	nginxCFG  *cfg.Graph
	nginxITC  *itc.Graph
	nginxIn   []byte
	traceBuf  []byte // full IPT trace of one nginx run
	perlbench *apps.App

	vulnd      *apps.App
	ropPayload []byte
}

func setup(tb testing.TB) {
	tb.Helper()
	fx.once.Do(func() {
		fx.nginx = apps.Nginx()
		as, err := fx.nginx.Load()
		if err != nil {
			panic(err)
		}
		fx.nginxAS = as
		g, err := cfg.Build(as)
		if err != nil {
			panic(err)
		}
		fx.nginxCFG = g
		fx.nginxITC = itc.FromCFG(g)
		fx.nginxIn = fx.nginx.MakeInput(benchScale, 1)

		// Train the graph and capture a full trace.
		for i := 0; i < 4; i++ {
			tips := mustTrace(fx.nginx, fx.nginx.MakeInput(benchScale, int64(100+i)))
			for j := 0; j+1 < len(tips); j++ {
				fx.nginxITC.Observe(tips[j].IP, tips[j+1].IP, tips[j+1].TNTSig)
			}
		}
		fx.nginxITC.RebuildCache()
		fx.traceBuf = mustTraceBytes(fx.nginx, fx.nginxIn)

		var pb *apps.App
		for _, a := range apps.SpecApps() {
			if a.Name == "perlbench" {
				pb = a
			}
		}
		fx.perlbench = pb

		fx.vulnd = apps.Vulnd()
		vas, err := fx.vulnd.Load()
		if err != nil {
			panic(err)
		}
		fx.ropPayload, err = attack.BuildROPWrite(vas)
		if err != nil {
			panic(err)
		}
	})
}

func mustTraceBytes(a *apps.App, input []byte) []byte {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		panic(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(64 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		panic(err)
	}
	p.CPU.Branch = tr
	if st, err := k.Run(p, 500_000_000); err != nil || !st.Exited {
		panic("bench trace run failed")
	}
	tr.Flush()
	return tr.Out.Snapshot()
}

func mustTrace(a *apps.App, input []byte) []ipt.TIPRecord {
	evs, err := ipt.DecodeFast(mustTraceBytes(a, input))
	if err != nil {
		panic(err)
	}
	return ipt.ExtractTIPs(evs)
}

// --- Table 1: tracing-mechanism cost ---------------------------------------

func benchTracedRun(b *testing.B, attach func(p *kernelsim.Process)) {
	a := fx.perlbench
	input := a.MakeInput(benchScale, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			b.Fatal(err)
		}
		if attach != nil {
			attach(p)
		}
		st, err := k.Run(p, 500_000_000)
		if err != nil || !st.Exited {
			b.Fatalf("run: %v %v", st, err)
		}
	}
}

func BenchmarkTable1_Baseline(b *testing.B) {
	setup(b)
	benchTracedRun(b, nil)
}

func BenchmarkTable1_BTS(b *testing.B) {
	setup(b)
	benchTracedRun(b, func(p *kernelsim.Process) {
		p.CPU.Branch = bts.New(4096)
	})
}

func BenchmarkTable1_LBR(b *testing.B) {
	setup(b)
	benchTracedRun(b, func(p *kernelsim.Process) {
		p.CPU.Branch = lbr.New(lbr.Depth32, lbr.FilterCFI)
	})
}

func BenchmarkTable1_IPT(b *testing.B) {
	setup(b)
	benchTracedRun(b, func(p *kernelsim.Process) {
		// A wrap-around two-region ToPA, as deployed (§5.1): tracing
		// cost is what is measured here, not buffer capacity.
		tr := ipt.NewTracer(ipt.NewToPA(8<<10, 8<<10))
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
			b.Fatal(err)
		}
		p.CPU.Branch = tr
	})
}

// --- §2 claim / Table 1 decoding column ------------------------------------

// BenchmarkFullDecodeOverhead measures the instruction-flow-layer decode
// of a complete nginx trace (the §2 "pause and decode" experiment).
func BenchmarkFullDecodeOverhead(b *testing.B) {
	setup(b)
	b.SetBytes(int64(len(fx.traceBuf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ft, err := ipt.DecodeFull(fx.nginxAS, fx.traceBuf, 0)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(ft.Instrs), "instrs/trace")
		}
	}
}

// BenchmarkFastDecode measures the packet-grammar-only scan of the same
// trace — the fast path's decoding layer.
func BenchmarkFastDecode(b *testing.B) {
	setup(b)
	m := startBenchMetrics(b)
	b.SetBytes(int64(len(fx.traceBuf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipt.DecodeFast(fx.traceBuf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	m.report(b)
}

// --- §7.2.2 micro: fast path vs slow path ----------------------------------

func microWindow(tb testing.TB) []byte {
	tb.Helper()
	setup(tb)
	buf := mustTraceBytes(fx.perlbench, fx.perlbench.MakeInput(benchScale, 1))
	evs, err := ipt.DecodeFast(buf)
	if err != nil {
		tb.Fatal(err)
	}
	tips := 0
	for _, e := range evs {
		if e.Kind == ipt.KindTIP {
			tips++
			if tips == 100 {
				return buf[:e.Off+16]
			}
		}
	}
	return buf
}

func BenchmarkFastPath(b *testing.B) {
	window, ig := fastPathFixture(b)
	// The guard keeps one WindowDecoder alive across checks; reusing it
	// here the same way makes the steady-state pass allocation-free.
	var dec ipt.WindowDecoder
	m := startBenchMetrics(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec.Reset(0)
		if err := dec.Feed(window); err != nil {
			b.Fatal(err)
		}
		tips := dec.Tips()
		for j := 0; j+1 < len(tips); j++ {
			ig.Lookup(tips[j].IP, tips[j+1].IP, tips[j+1].TNTSig)
		}
	}
	b.StopTimer()
	m.report(b)
}

func BenchmarkSlowPath(b *testing.B) {
	window := microWindow(b)
	pbAS, err := fx.perlbench.Load()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ipt.DecodeFull(pbAS, window, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4 / Table 5: offline analysis -----------------------------------

func BenchmarkTable5_CFGGeneration(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfg.Build(fx.nginxAS); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4_ITCConstruction(b *testing.B) {
	setup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ig := itc.FromCFG(fx.nginxCFG)
		if ig.NumNodes() == 0 {
			b.Fatal("empty ITC")
		}
	}
}

// --- Figure 5: protected-run overhead --------------------------------------

func benchProtected(b *testing.B, a *apps.App, pol guard.Policy) {
	as, err := a.Load()
	if err != nil {
		b.Fatal(err)
	}
	g, err := cfg.Build(as)
	if err != nil {
		b.Fatal(err)
	}
	ig := itc.FromCFG(g)
	for i := 0; i < 3; i++ {
		tips := mustTrace(a, a.MakeInput(benchScale, int64(100+i)))
		for j := 0; j+1 < len(tips); j++ {
			ig.Observe(tips[j].IP, tips[j+1].IP, tips[j+1].TNTSig)
		}
	}
	ig.RebuildCache()
	input := a.MakeInput(benchScale, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			b.Fatal(err)
		}
		km := guard.InstallModule(k)
		if _, err := km.Protect(p, g, ig, pol); err != nil {
			b.Fatal(err)
		}
		st, err := k.Run(p, 500_000_000)
		if err != nil || !st.Exited {
			b.Fatalf("protected run: %v %v (reports %v)", st, err, km.Reports)
		}
	}
}

func BenchmarkFig5a_Nginx(b *testing.B) {
	setup(b)
	benchProtected(b, fx.nginx, guard.DefaultPolicy())
}

func BenchmarkFig5a_Vsftpd(b *testing.B) {
	setup(b)
	benchProtected(b, apps.Vsftpd(), guard.DefaultPolicy())
}

func BenchmarkFig5a_OpenSSH(b *testing.B) {
	setup(b)
	benchProtected(b, apps.OpenSSH(), guard.DefaultPolicy())
}

func BenchmarkFig5a_Exim(b *testing.B) {
	setup(b)
	benchProtected(b, apps.Exim(), guard.DefaultPolicy())
}

func BenchmarkFig5b_Tar(b *testing.B) {
	setup(b)
	benchProtected(b, apps.Tar(), guard.DefaultPolicy())
}

func BenchmarkFig5b_DD(b *testing.B) {
	setup(b)
	benchProtected(b, apps.DD(), guard.DefaultPolicy())
}

func BenchmarkFig5c_Perlbench(b *testing.B) {
	setup(b)
	benchProtected(b, fx.perlbench, guard.DefaultPolicy())
}

func BenchmarkFig5c_H264ref(b *testing.B) {
	setup(b)
	var h *apps.App
	for _, a := range apps.SpecApps() {
		if a.Name == "h264ref" {
			h = a
		}
	}
	benchProtected(b, h, guard.DefaultPolicy())
}

// --- Guard internals ---------------------------------------------------------

// BenchmarkGuardCheck measures one endpoint flow check against a
// populated ToPA buffer (the §5.3 fast path as invoked by the kernel
// module). With the amortized window cache the steady state decodes no
// new bytes, so this is the repeat-check cost; BenchmarkCheckParallel's
// serial leg measures the from-scratch cost.
func BenchmarkGuardCheck(b *testing.B) {
	setup(b)
	k := kernelsim.New()
	p, err := fx.nginx.Spawn(k, fx.nginxIn)
	if err != nil {
		b.Fatal(err)
	}
	km := guard.InstallModule(k)
	g, err := km.Protect(p, fx.nginxCFG, fx.nginxITC, guard.DefaultPolicy())
	if err != nil {
		b.Fatal(err)
	}
	if st, err := k.Run(p, 500_000_000); err != nil || !st.Exited {
		b.Fatalf("run: %v %v", st, err)
	}
	m := startBenchMetrics(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Check()
		if res.Verdict != guard.VerdictClean {
			b.Fatalf("benign buffer flagged: %s", res.Reason)
		}
	}
	b.StopTimer()
	m.report(b)
}

// appendCheck replays a recorded nginx trace into one guard's ToPA, in
// the kernel module's 2×8 KiB geometry, about 1 KiB (cut at packet
// boundaries) before each check. The labels are trained on the recorded
// session, so every check stays on the fast path.
type appendCheck struct {
	g    *guard.Guard
	raw  []byte
	cuts []int
	next int
}

func newAppendCheck(tb testing.TB) *appendCheck {
	tb.Helper()
	setup(tb)
	in := fx.nginx.MakeInput(64*benchScale, 1)
	raw := mustTraceBytes(fx.nginx, in)
	evs, err := ipt.DecodeFast(raw)
	if err != nil {
		tb.Fatal(err)
	}
	labels := itc.FromCFG(fx.nginxCFG)
	tips := ipt.ExtractTIPs(evs)
	for j := 0; j+1 < len(tips); j++ {
		labels.Observe(tips[j].IP, tips[j+1].IP, tips[j+1].TNTSig)
	}
	labels.RebuildCache()
	cuts := []int{0}
	for _, e := range evs {
		if e.Off-cuts[len(cuts)-1] >= 1<<10 {
			cuts = append(cuts, e.Off)
		}
	}
	if len(cuts) < 64 {
		tb.Fatalf("recorded trace holds only %d 1 KiB chunks", len(cuts)-1)
	}
	// An unprogrammed tracer: Flush adds nothing, so the ToPA holds
	// exactly the appended recording.
	tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
	return &appendCheck{g: guard.New(fx.nginxAS, fx.nginxCFG, labels, tr, guard.DefaultPolicy()), raw: raw, cuts: cuts}
}

// left reports how many appends the recording still holds.
func (c *appendCheck) left() int { return len(c.cuts) - 1 - c.next }

// rewind starts the recording over on the emptied ToPA. The guard stays:
// its next check rescans into the decoder storage it retains.
func (c *appendCheck) rewind() {
	c.g.Tracer.Out.Reset()
	c.g.InvalidateWindow()
	c.next = 0
}

// step appends the next slice of the recording and checks it.
func (c *appendCheck) step(tb testing.TB) {
	c.g.Tracer.Out.Write(c.raw[c.cuts[c.next]:c.cuts[c.next+1]])
	c.next++
	if res := c.g.Check(); res.Verdict != guard.VerdictClean || res.UsedSlowPath {
		tb.Fatalf("benign trace: verdict %v (%s), slow path %v", res.Verdict, res.Reason, res.UsedSlowPath)
	}
}

// pass rewinds and replays the whole recording.
func (c *appendCheck) pass(tb testing.TB) {
	c.rewind()
	for c.left() > 0 {
		c.step(tb)
	}
}

// BenchmarkGuardCheckAppend measures the endpoint check a server pays
// when it has run since its previous check (appendCheck): every check
// decodes new bytes and trims the window of a buffer that wraps every
// 16 checks or so. (BenchmarkGuardCheck re-checks an unchanged buffer
// and decodes nothing.) One untimed pass warms the guard; whenever the
// recording runs out it starts over outside the timer.
func BenchmarkGuardCheckAppend(b *testing.B) {
	c := newAppendCheck(b)
	c.pass(b)
	m := startBenchMetrics(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.left() == 0 {
			b.StopTimer()
			c.rewind()
			b.StartTimer()
		}
		c.step(b)
	}
	b.StopTimer()
	m.report(b)
}

// TestGuardCheckAppendZeroAlloc: once warmed, the append-then-check loop
// of BenchmarkGuardCheckAppend allocates nothing, including the first
// check after a rewind, which rescans into the retained storage. Each
// run is a whole pass (AllocsPerRun's uncounted first call is the
// warm-up), so the count is exact rather than an average rounded down.
func TestGuardCheckAppendZeroAlloc(t *testing.T) {
	c := newAppendCheck(t)
	if allocs := testing.AllocsPerRun(1, func() { c.pass(t) }); allocs != 0 {
		t.Fatalf("a warmed pass of %d appends and checks allocated %.0f times, want 0", len(c.cuts)-1, allocs)
	}
}

// BenchmarkCheckParallel measures checking a fleet of protected
// processes, serially versus through a bounded one-shard FleetPool (§6:
// flow checks offloaded to spare cores), each process its own tenant. Every check re-collects its window
// from scratch (InvalidateWindow) so each operation carries the full
// multi-process checking load. The pooled leg also reports the modeled
// §6 speedup: total checking cycles over the slowest single process's
// cycles — the critical-path reduction when each process's checks run
// on their own core.
func BenchmarkCheckParallel(b *testing.B) {
	setup(b)
	const fleet = 4
	k := kernelsim.New()
	km := guard.InstallModule(k)
	guards := make([]*guard.Guard, fleet)
	for i := range guards {
		p, err := fx.nginx.Spawn(k, fx.nginxIn)
		if err != nil {
			b.Fatal(err)
		}
		g, err := km.Protect(p, fx.nginxCFG, fx.nginxITC, guard.DefaultPolicy())
		if err != nil {
			b.Fatal(err)
		}
		if st, err := k.Run(p, 500_000_000); err != nil || !st.Exited {
			b.Fatalf("run: %v %v", st, err)
		}
		guards[i] = g
	}
	cycles := func(g *guard.Guard) uint64 {
		return g.Stats.DecodeCycles + g.Stats.CheckCycles + g.Stats.SlowCycles
	}

	b.Run("serial", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range guards {
				g.InvalidateWindow()
				if res := g.Check(); res.Verdict != guard.VerdictClean {
					b.Fatalf("benign buffer flagged: %s", res.Reason)
				}
			}
		}
	})
	b.Run("pooled", func(b *testing.B) {
		b.ReportAllocs()
		pool := guard.NewFleetPool(1, fleet)
		tenants := make([]string, fleet)
		before := make([]uint64, fleet)
		for i, g := range guards {
			tenants[i] = fmt.Sprintf("nginx-%d", i)
			before[i] = cycles(g)
		}
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for j, g := range guards {
				wg.Add(1)
				go func() {
					defer wg.Done()
					g.InvalidateWindow()
					if res := pool.Do(tenants[j], g); res.Verdict != guard.VerdictClean {
						b.Errorf("benign buffer flagged: %s", res.Reason)
					}
				}()
			}
			wg.Wait()
		}
		var sum, max uint64
		for i, g := range guards {
			c := cycles(g) - before[i]
			sum += c
			if c > max {
				max = c
			}
		}
		if max > 0 {
			b.ReportMetric(float64(sum)/float64(max), "modeled-speedup")
		}
	})
}

// --- Figure 5(d): fuzzing throughput ----------------------------------------

func BenchmarkFig5d_FuzzExec(b *testing.B) {
	setup(b)
	a := fx.nginx
	exec := func(input []byte, cov []byte) error {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			return err
		}
		p.CPU.Branch = fuzz.CoverageSink(cov)
		_, err = k.Run(p, 2_000_000)
		return err
	}
	f := fuzz.New(exec, [][]byte{[]byte("G /index\n")}, fuzz.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	f.Run(b.N + f.Execs)
}

// --- §7.1.2: attack detection end to end -------------------------------------

func BenchmarkAttackDetection_ROP(b *testing.B) {
	setup(b)
	vas, err := fx.vulnd.Load()
	if err != nil {
		b.Fatal(err)
	}
	vg, err := cfg.Build(vas)
	if err != nil {
		b.Fatal(err)
	}
	vig := itc.FromCFG(vg)
	tips := mustTrace(fx.vulnd, fx.vulnd.MakeInput(benchScale, 100))
	for j := 0; j+1 < len(tips); j++ {
		vig.Observe(tips[j].IP, tips[j+1].IP, tips[j+1].TNTSig)
	}
	vig.RebuildCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := kernelsim.New()
		p, err := fx.vulnd.Spawn(k, fx.ropPayload)
		if err != nil {
			b.Fatal(err)
		}
		km := guard.InstallModule(k)
		if _, err := km.Protect(p, vg, vig, guard.DefaultPolicy()); err != nil {
			b.Fatal(err)
		}
		st, err := k.Run(p, 500_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if !st.Killed {
			b.Fatal("ROP not detected")
		}
	}
}

// --- Raw substrate throughput -------------------------------------------------

// BenchmarkCPUEmulation reports the emulator's instruction throughput
// (context for all wall-clock numbers above).
func BenchmarkCPUEmulation(b *testing.B) {
	setup(b)
	as, err := fx.perlbench.Load()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		c := cpu.New(as)
		c.Sys = nopSyscalls{}
		_, err := c.Run(200_000)
		if err != nil && !errors.Is(err, cpu.ErrHalted) && !isBudget(err) {
			b.Fatal(err)
		}
		total += c.Instrs
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkCPURun reports the emulator's cost per retired instruction
// over one nginx session, untraced and under the IPT tracer. The kernel
// model services the session's syscalls; spawning the process is
// outside the timer. It is a tier-1 benchmark (perfstat.Tier1Names):
// fgperf -short runs it, and the gate covers it once the baseline holds
// it.
func BenchmarkCPURun(b *testing.B) {
	setup(b)
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "ipt"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var instrs uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				k := kernelsim.New()
				p, err := fx.nginx.Spawn(k, fx.nginxIn)
				if err != nil {
					b.Fatal(err)
				}
				if traced {
					tr := ipt.NewTracer(ipt.NewToPA())
					if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
						b.Fatal(err)
					}
					p.CPU.Branch = tr
				}
				b.StartTimer()
				if st, err := k.Run(p, 500_000_000); err != nil || !st.Exited {
					b.Fatalf("run: %v %v", st, err)
				}
				instrs += p.CPU.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}

type nopSyscalls struct{}

func (nopSyscalls) Syscall(c *cpu.CPU) error { return nil }

func isBudget(err error) bool {
	return err != nil && err.Error() == "cpu: instruction budget 200000 exhausted"
}

// Keep the public API in the loop: an end-to-end pipeline benchmark.
func BenchmarkPublicAPIPipeline(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := flowguard.LoadWorkload("openssh")
		if err != nil {
			b.Fatal(err)
		}
		sys, err := flowguard.Analyze(w)
		if err != nil {
			b.Fatal(err)
		}
		if err := sys.TrainGenerated(2, 4, 1); err != nil {
			b.Fatal(err)
		}
		out, err := sys.Run(w.Input(4, 2))
		if err != nil {
			b.Fatal(err)
		}
		if !out.Exited {
			b.Fatal("pipeline run failed")
		}
	}
}

// BenchmarkITCSerialize measures the trained-graph artifact encoding
// (the offline phase's output, §3.3).
func BenchmarkITCSerialize(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fx.nginxITC.Encode(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkITCFlatSerialize measures the flat artifact round-trip the
// fleet-distribution path depends on: encoding the trained graph (a
// verbatim write of the snapshot arena) plus LoadFlat's full validation
// and zero-copy adoption of the bytes. Tier-1: a regression here means
// marshaling crept back into what is designed to be a memcpy-and-verify.
func BenchmarkITCFlatSerialize(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := fx.nginxITC.Encode(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := itc.LoadFlat(buf.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// BenchmarkITCDeserialize measures loading it back at protection time.
func BenchmarkITCDeserialize(b *testing.B) {
	setup(b)
	var buf bytes.Buffer
	if err := fx.nginxITC.Encode(&buf); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := itc.Decode(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserveWindow measures training throughput: labeling one
// full-run TIP window into the graph.
func BenchmarkObserveWindow(b *testing.B) {
	setup(b)
	tips := mustTrace(fx.nginx, fx.nginx.MakeInput(benchScale, 55))
	b.ReportMetric(float64(len(tips)), "tips/window")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fx.nginxITC.ObserveWindow(tips)
	}
}

// BenchmarkGadgetScan measures the attacker-side gadget search.
func BenchmarkGadgetScan(b *testing.B) {
	setup(b)
	vas, err := fx.vulnd.Load()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gs := attack.FindGadgets(vas, 6); len(gs) == 0 {
			b.Fatal("no gadgets")
		}
	}
}

// BenchmarkFuzzTrim measures the corpus-minimization stage on a
// synthetic target.
func BenchmarkFuzzTrim(b *testing.B) {
	exec := func(input []byte, cov []byte) error {
		for _, by := range input {
			if by >= 'A' && by <= 'Z' {
				cov[int(by-'A')]++
			}
		}
		return nil
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := fuzz.DefaultConfig()
		cfg.TrimBudget = 128
		seed := append([]byte("ABCD"), make([]byte, 512)...)
		f := fuzz.New(exec, [][]byte{seed}, cfg)
		f.Run(160)
		if f.TrimmedBytes == 0 {
			b.Fatal("nothing trimmed")
		}
	}
}

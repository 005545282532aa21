package guard

// White-box tests of the fast path's window-collection logic (§5.3):
// synthetic branch streams drive the tracer, and the selected TIP
// windows are checked against the pkt_count and module-stride rules.

import (
	"bytes"
	"reflect"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cfg"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/module"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// windowFixture builds a two-module address space (exec + one lib) and a
// tracer fed with synthetic indirect branches at chosen addresses.
type windowFixture struct {
	as   *module.AddressSpace
	tr   *ipt.Tracer
	g    *Guard
	exec uint64 // a code address inside the executable
	lib  uint64 // a code address inside the library
}

func newWindowFixture(t testing.TB, pol Policy) *windowFixture {
	t.Helper()
	lb := asm.NewModule("lib")
	lf := lb.Func("lfn", 0, true)
	for i := 0; i < 16; i++ {
		lf.Nop()
	}
	lf.Ret()
	libm, err := lb.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	eb := asm.NewModule("app").Needs("lib")
	ef := eb.Func("main", 0, true)
	eb.SetEntry("main")
	for i := 0; i < 16; i++ {
		ef.Nop()
	}
	ef.Halt()
	execm, err := eb.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(execm, map[string]*module.Module{"lib": libm}, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(1 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		t.Fatal(err)
	}
	// The guard under test does not need real graphs for window logic;
	// an empty ITC-CFG still gives checks a label artifact to adopt.
	g := New(as, nil, itc.FromCFG(&cfg.Graph{}), tr, pol)
	return &windowFixture{
		as:   as,
		tr:   tr,
		g:    g,
		exec: as.Exec.CodeBase + 8,
		lib:  as.Mods[1].CodeBase + 8,
	}
}

// emitTIP pushes one synthetic indirect branch targeting addr.
func (w *windowFixture) emitTIP(addr uint64) {
	w.tr.Branch(trace.Branch{Class: isa.CoFIIndirect, Source: addr, Target: addr, Taken: true})
}

func tipsOf(t *testing.T, g *Guard) []ipt.TIPRecord {
	t.Helper()
	tips, _, _, _, err := g.window(&g.main)
	if err != nil {
		t.Fatal(err)
	}
	return tips
}

func TestWindowEmptyTrace(t *testing.T) {
	f := newWindowFixture(t, DefaultPolicy())
	if tips := tipsOf(t, f.g); len(tips) != 0 {
		t.Fatalf("window over empty trace = %d records", len(tips))
	}
}

func TestWindowHonorsPktCount(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 8
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	for i := 0; i < 100; i++ {
		f.emitTIP(f.exec)
	}
	tips := tipsOf(t, f.g)
	if len(tips) != 8 {
		t.Fatalf("window = %d TIPs, want exactly pkt_count 8 when stride is off", len(tips))
	}
}

// TestWindowExtendsForStride: the last pkt_count TIPs are all in the
// library; the window must grow backwards until it includes executable
// packets (§5.3/§7.1.1: "ensured to check packets striding across more
// than one modules, and at least one of them is within the executable").
func TestWindowExtendsForStride(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 8
	f := newWindowFixture(t, pol)
	f.emitTIP(f.exec) // old executable history
	for i := 0; i < 40; i++ {
		f.emitTIP(f.lib) // long library run (the return-to-lib pattern)
	}
	tips := tipsOf(t, f.g)
	if len(tips) <= 8 {
		t.Fatalf("window = %d TIPs; stride rule should have extended past pkt_count", len(tips))
	}
	hasExec := false
	for _, r := range tips {
		if f.as.Exec.ContainsCode(r.IP) {
			hasExec = true
		}
	}
	if !hasExec {
		t.Fatal("extended window still lacks an executable packet")
	}
}

// TestWindowBestEffortWhenStrideImpossible: if the whole buffer is
// library-only, the window is best-effort rather than empty.
func TestWindowBestEffortWhenStrideImpossible(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 8
	f := newWindowFixture(t, pol)
	for i := 0; i < 20; i++ {
		f.emitTIP(f.lib)
	}
	tips := tipsOf(t, f.g)
	if len(tips) == 0 {
		t.Fatal("stride-impossible window came back empty")
	}
}

// TestIncrementalWindowMatchesFullRescan: the amortized window cache
// must select exactly the window a from-scratch rescan selects, check
// after check, including across ToPA wraps. A second guard over the same
// tracer has its cache invalidated before every call, forcing the
// non-amortized path as the reference.
func TestIncrementalWindowMatchesFullRescan(t *testing.T) {
	for _, wrap := range []bool{false, true} {
		pol := DefaultPolicy()
		pol.PktCount = 8
		f := newWindowFixture(t, pol)
		if wrap {
			f.tr.Out = ipt.NewToPA(2048, 2048)
		}
		full := New(f.as, nil, nil, f.tr, pol)
		var scannedSum uint64
		for round := 0; round < 60; round++ {
			for i := 0; i < 1+round%17; i++ {
				addr := f.exec
				if (round+i)%3 == 1 {
					addr = f.lib
				}
				f.emitTIP(addr)
			}
			inc, incRegion, scanned, _, err := f.g.window(&f.g.main)
			if err != nil {
				t.Fatalf("wrap=%v round %d: %v", wrap, round, err)
			}
			scannedSum += scanned
			full.InvalidateWindow()
			ref, refRegion, _, _, err := full.window(&full.main)
			if err != nil {
				t.Fatalf("wrap=%v round %d (rescan): %v", wrap, round, err)
			}
			if !reflect.DeepEqual(inc, ref) {
				t.Fatalf("wrap=%v round %d: incremental window (%d TIPs) diverges from rescan (%d TIPs)",
					wrap, round, len(inc), len(ref))
			}
			if !bytes.Equal(incRegion, refRegion) {
				t.Fatalf("wrap=%v round %d: slow-path region diverges (%d vs %d bytes)",
					wrap, round, len(incRegion), len(refRegion))
			}
		}
		if !wrap && scannedSum != f.tr.Out.TotalWritten() {
			t.Fatalf("incremental path scanned %d bytes, stream has %d: bytes double-scanned or skipped",
				scannedSum, f.tr.Out.TotalWritten())
		}
		if wrap && scannedSum > f.tr.Out.TotalWritten() {
			t.Fatalf("incremental path scanned %d bytes of a %d-byte stream", scannedSum, f.tr.Out.TotalWritten())
		}
	}
}

// TestWrapPastWindowResyncs: when the producer wraps the ToPA past the
// incremental cache's tail, AppendSince can no longer serve the delta
// and the guard must resynchronize from a fresh snapshot. The resync is
// counted in Stats.Resyncs and classified HealthResynced — the span
// between the checks was evicted unchecked, which is overflow loss
// without an OVF marker — while a first check over an already-wrapped
// buffer stays clean (no coverage was promised before tracking began).
// The resynced check selects the same window a from-scratch guard
// selects, and the cache then resumes amortizing with clean health. An
// explicit InvalidateWindow also forces a rescan but is not a resync.
func TestWrapPastWindowResyncs(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 8
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	f.tr.Out = ipt.NewToPA(2048, 2048)

	// Prime the incremental cache.
	for i := 0; i < 50; i++ {
		f.emitTIP(f.exec)
	}
	tipsOf(t, f.g)
	if f.g.Stats.Resyncs != 0 {
		t.Fatalf("Resyncs = %d before any wrap", f.g.Stats.Resyncs)
	}

	// Outrun the cache: more new bytes than the whole buffer holds.
	for i := 0; i < 6000; i++ {
		f.emitTIP(f.exec)
	}
	inc, incRegion, _, health, err := f.g.window(&f.g.main)
	if err != nil {
		t.Fatal(err)
	}
	if f.g.Stats.Resyncs != 1 {
		t.Fatalf("Resyncs = %d after wrap outran the cache, want 1", f.g.Stats.Resyncs)
	}
	if health != HealthResynced {
		t.Fatalf("health = %v; wrap past unchecked trace must classify as resynced", health)
	}
	if len(inc) != 8 {
		t.Fatalf("post-resync window = %d TIPs, want pkt_count 8", len(inc))
	}
	ref := New(f.as, nil, nil, f.tr, pol)
	refTips, refRegion, _, refHealth, err := ref.window(&ref.main)
	if err != nil {
		t.Fatal(err)
	}
	if refHealth != HealthClean {
		t.Fatalf("fresh guard's first check over a wrapped buffer = %v, want clean", refHealth)
	}
	if !reflect.DeepEqual(inc, refTips) || !bytes.Equal(incRegion, refRegion) {
		t.Fatalf("resynced window (%d TIPs, %d-byte region) diverges from a fresh guard's (%d TIPs, %d bytes)",
			len(inc), len(incRegion), len(refTips), len(refRegion))
	}

	// Small appends amortize again: no further resync, health clean.
	for i := 0; i < 5; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, health, err := f.g.window(&f.g.main); err != nil || health != HealthClean {
		t.Fatalf("after a servable delta: health %v, err %v", health, err)
	}
	if f.g.Stats.Resyncs != 1 {
		t.Fatalf("Resyncs = %d after a servable delta, want still 1", f.g.Stats.Resyncs)
	}

	// Explicit invalidation rescans without counting as a resync: only
	// an AppendSince failure is the wrap-outran-us event.
	f.g.InvalidateWindow()
	tipsOf(t, f.g)
	if f.g.Stats.Resyncs != 1 {
		t.Fatalf("Resyncs = %d after InvalidateWindow, want still 1", f.g.Stats.Resyncs)
	}
}

// TestWindowSurvivesToPAWrap: after the circular buffer wraps, window
// collection must still sync and return records.
func TestWindowSurvivesToPAWrap(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 8
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	// Swap in a tiny two-region ToPA and overfill it several times.
	f.tr.Out = ipt.NewToPA(2048, 2048)
	for i := 0; i < 8000; i++ {
		f.emitTIP(f.exec)
	}
	if f.tr.Out.TotalWritten() <= uint64(f.tr.Out.Capacity()) {
		t.Fatal("buffer did not wrap; test setup broken")
	}
	tips := tipsOf(t, f.g)
	if len(tips) < 8 {
		t.Fatalf("post-wrap window = %d TIPs", len(tips))
	}
}

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
	as    *module.AddressSpace
	tr    *ipt.Tracer
	g     *Guard
	exec  uint64 // a code address inside the executable
	lib   uint64 // a code address inside the library
	spans int    // branches emitSpan has pushed so far
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

// emitSpan pushes n synthetic indirect branches in the repeating pattern
// exec, lib, exec, continued across calls. Any three consecutive ones
// span the executable and the library, so with PktCount ≥ 3 a window
// meets the module-stride rule at exactly PktCount records.
func (w *windowFixture) emitSpan(n int) {
	for i := 0; i < n; i++ {
		addr := w.exec
		if w.spans%3 == 1 {
			addr = w.lib
		}
		w.spans++
		w.emitTIP(addr)
	}
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
	f := newWindowFixture(t, pol)
	f.emitSpan(100)
	tips := tipsOf(t, f.g)
	if len(tips) != 8 {
		t.Fatalf("window = %d TIPs, want exactly pkt_count 8 when its tail spans both modules", len(tips))
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

// regionOf returns the slow-path region of the window g last collected
// from its process stream, opening at psb, as the slow path copies it out
// of the ToPA.
func regionOf(t *testing.T, g *Guard, psb uint64) []byte {
	t.Helper()
	region, ok := g.windowRegion(&g.main, psb)
	if !ok {
		t.Fatalf("window region [%d, %d) is not resident", psb, g.main.win.total)
	}
	return append([]byte(nil), region...)
}

// snapshotRegion is the reference for regionOf: the tail of a fresh
// snapshot of tr's ToPA from stream offset psb on.
func snapshotRegion(tr *ipt.Tracer, psb uint64) []byte {
	snap := tr.Out.Snapshot()
	return snap[uint64(len(snap))-(tr.Out.TotalWritten()-psb):]
}

// TestIncrementalWindowMatchesFullRescan: the amortized window cache
// must select exactly the window a from-scratch rescan selects, check
// after check, including across ToPA wraps. A second guard over the same
// tracer has its cache invalidated before every call, forcing the
// non-amortized path as the reference. The window's records and its
// slow-path region bytes must match at every round: in an unwrapped
// buffer, in a small wrapping one, and in the deployed 2×8 KiB geometry
// over thousands of rounds with async drains (region-full captures fed
// into the same window cache) interleaved between the checks.
func TestIncrementalWindowMatchesFullRescan(t *testing.T) {
	for _, tc := range []struct {
		name   string
		region int // 0: one unwrapped 1 MiB region
		rounds int
		// burst adds up to 280 more branches to a round.
		burst bool
		async bool
	}{
		{"unwrapped", 0, 60, false, false},
		{"wrap-2x2KiB", 2048, 60, false, false},
		{"deployed-2x8KiB-async", DefaultToPARegion, 3000, true, true},
	} {
		pol := DefaultPolicy()
		pol.PktCount = 8
		f := newWindowFixture(t, pol)
		if tc.region > 0 {
			f.tr.Out = ipt.NewToPA(tc.region, tc.region)
		}
		if tc.async {
			f.g.EnableAsync(closedPool())
		}
		full := New(f.as, nil, nil, f.tr, pol)
		var scannedSum uint64
		drains := 0
		for round := 0; round < tc.rounds; round++ {
			n := 1 + round%17
			if tc.burst {
				n += round % 5 * (round % 71)
			}
			for i := 0; i < n; i++ {
				addr := f.exec
				if (round+i)%3 == 1 {
					addr = f.lib
				}
				f.emitTIP(addr)
			}
			f.g.mu.Lock()
			if tc.async {
				// Drain some of the captured windows, as workers would
				// between two endpoints; the check discards the rest.
				for i := 0; i < round%3 && asyncDrainOneLocked(&f.g.main); i++ {
					drains++
				}
			}
			inc, incPSB, scanned, _, err := f.g.window(&f.g.main)
			if tc.async {
				f.g.asyncSettleLocked(f.g.main.async)
			}
			f.g.mu.Unlock()
			if err != nil {
				t.Fatalf("%s round %d: %v", tc.name, round, err)
			}
			scannedSum += scanned
			incRegion := regionOf(t, f.g, incPSB)
			full.InvalidateWindow()
			ref, refPSB, _, _, err := full.window(&full.main)
			if err != nil {
				t.Fatalf("%s round %d (rescan): %v", tc.name, round, err)
			}
			if !reflect.DeepEqual(inc, ref) {
				t.Fatalf("%s round %d: incremental window (%d TIPs) diverges from rescan (%d TIPs)",
					tc.name, round, len(inc), len(ref))
			}
			if refRegion := snapshotRegion(f.tr, refPSB); incPSB != refPSB || !bytes.Equal(incRegion, refRegion) {
				t.Fatalf("%s round %d: slow-path region diverges (%d bytes at %d vs %d bytes at %d)",
					tc.name, round, len(incRegion), incPSB, len(refRegion), refPSB)
			}
		}
		total := f.tr.Out.TotalWritten()
		if tc.region == 0 && scannedSum != total {
			t.Fatalf("%s: incremental path scanned %d bytes, stream has %d: bytes double-scanned or skipped",
				tc.name, scannedSum, total)
		}
		if scannedSum > total {
			t.Fatalf("%s: incremental path scanned %d bytes of a %d-byte stream", tc.name, scannedSum, total)
		}
		if tc.burst && total < 50*uint64(f.tr.Out.Capacity()) {
			t.Fatalf("%s: %d bytes written never wrapped the %d-byte buffer often", tc.name, total, f.tr.Out.Capacity())
		}
		if tc.async {
			if fed, _ := AsyncDrainCounts(f.g); fed == 0 || drains == 0 {
				t.Fatalf("%s: %d drains fed %d captured windows; the async interleaving never ran", tc.name, drains, fed)
			}
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
	f := newWindowFixture(t, pol)
	f.tr.Out = ipt.NewToPA(2048, 2048)

	// Prime the incremental cache.
	f.emitSpan(50)
	tipsOf(t, f.g)
	if f.g.Stats.Resyncs != 0 {
		t.Fatalf("Resyncs = %d before any wrap", f.g.Stats.Resyncs)
	}

	// Outrun the cache: more new bytes than the whole buffer holds.
	f.emitSpan(6000)
	inc, incPSB, _, health, err := f.g.window(&f.g.main)
	if err != nil {
		t.Fatal(err)
	}
	incRegion := regionOf(t, f.g, incPSB)
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
	refTips, refPSB, _, refHealth, err := ref.window(&ref.main)
	if err != nil {
		t.Fatal(err)
	}
	refRegion := snapshotRegion(f.tr, refPSB)
	if refHealth != HealthClean {
		t.Fatalf("fresh guard's first check over a wrapped buffer = %v, want clean", refHealth)
	}
	if !reflect.DeepEqual(inc, refTips) || !bytes.Equal(incRegion, refRegion) {
		t.Fatalf("resynced window (%d TIPs, %d-byte region) diverges from a fresh guard's (%d TIPs, %d bytes)",
			len(inc), len(incRegion), len(refTips), len(refRegion))
	}

	// Small appends amortize again: no further resync, health clean.
	f.emitSpan(5)
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
	f := newWindowFixture(t, pol)
	// Swap in a tiny two-region ToPA and overfill it several times.
	f.tr.Out = ipt.NewToPA(2048, 2048)
	f.emitSpan(8000)
	if f.tr.Out.TotalWritten() <= uint64(f.tr.Out.Capacity()) {
		t.Fatal("buffer did not wrap; test setup broken")
	}
	tips := tipsOf(t, f.g)
	if len(tips) < 8 {
		t.Fatalf("post-wrap window = %d TIPs", len(tips))
	}
}

package guard

// Differential test of the window cache's record trim: winState.trim
// drops the records before the first record of the last qualifying
// window (winState.keep) as well as those the ToPA no longer holds. The
// trimmed guard must select, at every check, the window a fresh decoder
// fed the whole resident span selects, and must classify the check
// exactly as a twin that keeps every resident record.

import (
	"fmt"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// recordSession runs app on input with a dedicated tracer and returns
// the trace it wrote. Kernel-performed transfers reach the trace as
// async FUP+TIP pairs, as under the kernel module.
func recordSession(tb testing.TB, app *apps.App, input []byte) []byte {
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
	if st, err := k.Run(p, 80_000_000); err != nil || !st.Exited {
		tb.Fatalf("recording %s: %v %v", app.Name, st, err)
	}
	tr.Flush()
	return tr.Out.Snapshot()
}

// specApp returns the SPEC kernel called name.
func specApp(tb testing.TB, name string) *apps.App {
	for _, a := range apps.SpecApps() {
		if a.Name == name {
			return a
		}
	}
	tb.Fatalf("no SPEC kernel %q", name)
	return nil
}

// windowAt runs the window collection of g's process stream as a check
// does, settling the async pipeline afterwards, and returns a copy of
// the window.
func windowAt(g *Guard) (tips []ipt.TIPRecord, psb, scanned uint64, health TraceHealth, err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	tips, psb, scanned, health, err = g.window(&g.main)
	if a := g.main.async; a != nil {
		g.asyncSettleLocked(a)
	}
	return append([]ipt.TIPRecord(nil), tips...), psb, scanned, health, err
}

// freshWindow is the reference: a new decoder fed the whole resident
// span of topa, and selectWindow over what it decoded.
func freshWindow(tb testing.TB, g *Guard, topa *ipt.ToPA) (tips []ipt.TIPRecord, psb uint64, first int, ok bool) {
	tb.Helper()
	total, held, _ := topa.State()
	lo := total - uint64(held)
	d := ipt.NewWindowDecoder(int(lo))
	if ok, err := topa.FeedRange(d, lo, total); !ok || err != nil {
		tb.Fatalf("fresh decode of [%d, %d): %v, %v", lo, total, ok, err)
	}
	if len(d.SyncPoints()) == 0 {
		return nil, total, -1, false
	}
	first = -1
	if all := d.Tips(); len(all) > 0 {
		first = all[0].Off
	}
	tips, p, ok := g.selectWindow(d.Tips(), d.SyncPoints())
	return tips, uint64(p), first, ok
}

// sameRecord compares the fields a check reads. The fresh decoder starts
// its TNT run at its first sync point, so the signature of its first
// record (offset first) is not compared: no edge check reads it.
func sameRecord(a, b ipt.TIPRecord, first int) bool {
	return a.Off == b.Off && a.IP == b.IP && a.Resync == b.Resync && a.Async == b.Async &&
		(a.TNTSig == b.TNTSig || a.Off == first)
}

// TestTrimmedWindowMatchesFreshDecode feeds recorded sessions of the
// servers and of h264ref, whose hot loop stays in the executable so the
// module-stride extension reaches back through the buffer, into the
// kernel module's 2×8 KiB ToPA in chunks of several sizes, synchronously
// and with async drains of the trimmed guard between checks. At every
// check the trimmed guard's window and sync point must equal
// selectWindow over a fresh decoder of the resident span, and its window, sync point, scanned
// bytes and health must equal those of a twin whose mark is cleared
// before every check (so that it trims only what the ToPA evicted). A
// chunk larger than the buffer is a wrap loss; halfway through each
// replay both ToPAs are emptied and the windows invalidated, as a fleet
// process restarts; and at three quarters both guards get new ToPAs,
// whose stream offsets start again at 0. Each time both decoders start
// afresh, and with them the mark.
func TestTrimmedWindowMatchesFreshDecode(t *testing.T) {
	h264ref := specApp(t, "h264ref")
	recordings := []struct {
		app   *apps.App
		input []byte
	}{
		{apps.Nginx(), apps.Nginx().MakeInput(120, 1)},
		{apps.Vsftpd(), apps.Vsftpd().MakeInput(60, 2)},
		{apps.OpenSSH(), apps.OpenSSH().MakeInput(45, 3)},
		{h264ref, h264ref.MakeInput(20, 1)},
	}
	chunks := []int{97, 771, 2048, 6000}
	if testing.Short() {
		chunks = []int{771, 6000}
	}
	// One closed pool serves every async guard: its worker has exited,
	// so the test alone decides when captures are drained.
	pool := closedPool()
	for _, rec := range recordings {
		raw := recordSession(t, rec.app, rec.input)
		for _, chunk := range chunks {
			for _, async := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/chunk%d/async=%v", rec.app.Name, chunk, async), func(t *testing.T) {
					var p *AsyncPool
					if async {
						p = pool
					}
					checkTrimmedReplay(t, rec.app, raw, chunk, p)
				})
			}
		}
	}
}

// checkTrimmedReplay replays raw in chunks of chunk bytes into a trimmed
// guard and its twin, attached to pool when it is not nil.
func checkTrimmedReplay(t *testing.T, app *apps.App, raw []byte, chunk int, pool *AsyncPool) {
	as, err := app.Load()
	if err != nil {
		t.Fatal(err)
	}
	newG := func() *Guard {
		g := New(as, nil, nil, ipt.NewTracer(ipt.NewToPA(DefaultToPARegion, DefaultToPARegion)), DefaultPolicy())
		if pool != nil {
			g.EnableAsync(pool)
		}
		return g
	}
	trimmed, twin := newG(), newG()
	wrapAt, rewindAt, swapAt := len(raw)/3, len(raw)/2, len(raw)*3/4
	var qualified, bestEffort, kept, resident, wrapped, rewound, swapped int
	for lo, step := 0, 0; lo < len(raw); step++ {
		n := chunk
		if lo < wrapAt && lo+n >= wrapAt {
			n = 2*DefaultToPARegion + chunk // outruns the window cache: a wrap loss
			wrapped = 1
		}
		hi := min(lo+n, len(raw))
		if lo < rewindAt && hi >= rewindAt {
			rewound = 1
		}
		if lo < swapAt && hi >= swapAt {
			swapped = 1
		}
		for _, g := range []*Guard{trimmed, twin} {
			if lo < rewindAt && hi >= rewindAt {
				g.Tracer.Out.Reset()
				g.InvalidateWindow()
			}
			if lo < swapAt && hi >= swapAt {
				g.Tracer.Out = ipt.NewToPA(DefaultToPARegion, DefaultToPARegion)
				if pool != nil {
					g.Tracer.Out.OnRegionFull = g.asyncOnRegionFull
				}
			}
			g.Tracer.Out.Write(raw[lo:hi])
			// The trimmed guard drains every capture before its check
			// (the drains trim by the same rule); the twin's gate decodes
			// them itself.
			for pool != nil && g == trimmed && g.AsyncDrainOne() {
			}
		}
		lo = hi
		got, gotPSB, gotScanned, gotHealth, gotErr := windowAt(trimmed)
		want, wantPSB, wantScanned, wantHealth, wantErr := windowAt(twin)
		twin.main.win.keep = 0 // before its drains and its next check trim
		if gotErr != nil || wantErr != nil {
			t.Fatalf("check %d: decode errors %v, %v", step, gotErr, wantErr)
		}
		if gotPSB != wantPSB || gotScanned != wantScanned || gotHealth != wantHealth || len(got) != len(want) {
			t.Fatalf("check %d (offset %d): trimmed guard: %d records from %d, %d scanned, %v; twin: %d records from %d, %d scanned, %v",
				step, lo, len(got), gotPSB, gotScanned, gotHealth, len(want), wantPSB, wantScanned, wantHealth)
		}
		for i := range got {
			if !sameRecord(got[i], want[i], -1) {
				t.Fatalf("check %d (offset %d): record %d is %+v, twin has %+v", step, lo, i, got[i], want[i])
			}
		}
		fresh, freshPSB, first, ok := freshWindow(t, trimmed, trimmed.Tracer.Out)
		if gotPSB != freshPSB || len(got) != len(fresh) {
			t.Fatalf("check %d (offset %d): trimmed guard: %d records from %d; fresh decode: %d records from %d",
				step, lo, len(got), gotPSB, len(fresh), freshPSB)
		}
		for i := range got {
			if !sameRecord(got[i], fresh[i], first) {
				t.Fatalf("check %d (offset %d): record %d is %+v, fresh decode has %+v", step, lo, i, got[i], fresh[i])
			}
		}
		if ok {
			qualified++
		} else {
			bestEffort++
		}
		kept += len(trimmed.main.win.dec.Tips())
		resident += len(ipt.TipsFrom(twin.main.win.dec.Tips(), first))
	}
	if qualified == 0 {
		t.Fatal("no window qualified: the trim never ran")
	}
	if pool != nil && trimmed.main.async.fed == 0 {
		t.Fatal("no captured window was drained")
	}
	if steps := wrapped + rewound + swapped; steps != 3 {
		t.Fatalf("the replay met %d of its wrap loss, rewind and new buffer", steps)
	}
	t.Logf("%d bytes in chunks of %d: %d qualifying windows, %d best effort; %d records kept per check, %d resident after the first sync point",
		len(raw), chunk, qualified, bestEffort, kept/(qualified+bestEffort), resident/(qualified+bestEffort))
}

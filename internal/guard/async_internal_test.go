package guard

// White-box tests of the asynchronous checking pipeline's mechanics on
// the synthetic-branch window fixture: region-full capture, drains, the
// gate over a backlog nobody drained, and the poisoned-window replay
// after a contained worker panic. Background goroutines are kept
// out of the picture (closedPool) so every schedule is deterministic;
// the racing end-to-end behavior is covered by the black-box tests in
// async_test.go and the chaos soak in internal/faults.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"flowguard/internal/trace/ipt"
)

// closedPool returns a pool whose workers have already exited: captures
// still enqueue and wake-sends still land in the buffered channel, but
// nothing drains in the background, so the test controls the drain
// schedule completely.
func closedPool() *AsyncPool {
	p := NewAsyncPool(1)
	p.Close()
	return p
}

// newAsyncFixture is the window fixture re-pointed at a small two-region
// ToPA (so region-full captures actually fire) with the async pipeline
// attached.
func newAsyncFixture(t *testing.T, pol Policy, region int) *windowFixture {
	t.Helper()
	f := newWindowFixture(t, pol)
	f.tr.Out = ipt.NewToPA(region, region)
	f.tr.PSBPeriod = 256 // keep sync points resident in the tiny buffer
	f.g.EnableAsync(closedPool())
	return f
}

func asyncPolicy() Policy {
	pol := DefaultPolicy()
	pol.PktCount = 4
	pol.RequireModuleStride = false
	pol.Async = true
	return pol
}

// TestAsyncCaptureAndFlush: filling trace regions captures pending
// windows, and AsyncFlushStats folds the pipeline counters into Stats
// and discards the captures.
func TestAsyncCaptureAndFlush(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 512)
	for i := 0; i < 1000; i++ {
		f.emitTIP(f.exec)
	}
	f.tr.Flush()
	pend := f.g.AsyncPending()
	if pend == 0 {
		t.Fatal("no captured windows after filling trace regions")
	}
	f.g.AsyncFlushStats()
	if f.g.Stats.AsyncWindows == 0 {
		t.Fatal("AsyncWindows not folded into Stats")
	}
	if f.g.Stats.AsyncMaxLag < uint64(pend) {
		t.Fatalf("AsyncMaxLag = %d, want >= observed backlog %d", f.g.Stats.AsyncMaxLag, pend)
	}
	if f.g.AsyncPending() != 0 {
		t.Fatalf("flush left %d captures pending", f.g.AsyncPending())
	}
}

// TestAsyncDrainFeedsSharedWindow: after a first check establishes the
// incremental window, worker drains advance the very same decoder state
// the synchronous path would, and the next window() serves the residual
// without re-scanning what workers already fed.
func TestAsyncDrainFeedsSharedWindow(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 512)
	for i := 0; i < 100; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, h, err := f.g.window(&f.g.main); err != nil || h != HealthClean {
		t.Fatalf("establishing window: health %v, err %v", h, err)
	}
	// Settle the pipeline after the verdict, as the check does.
	f.g.mu.Lock()
	f.g.asyncSettleLocked(f.g.main.async)
	f.g.mu.Unlock()

	for i := 0; i < 700; i++ {
		f.emitTIP(f.exec)
	}
	f.tr.Flush()
	if f.g.AsyncPending() == 0 {
		t.Fatal("no captures to drain")
	}
	drained := 0
	for f.g.AsyncDrainOne() {
		drained++
	}
	if drained == 0 {
		t.Fatal("AsyncDrainOne drained nothing")
	}
	wantTotal := f.tr.Out.TotalWritten()
	fed := f.g.main.win.total
	if fed <= 0 || fed > wantTotal {
		t.Fatalf("drains advanced window to %d of %d written", fed, wantTotal)
	}
	checkedBefore := f.g.main.win.checkedTotal
	tips, _, scanned, h, err := f.g.window(&f.g.main)
	if err != nil || h != HealthClean {
		t.Fatalf("post-drain window: health %v, err %v", h, err)
	}
	if len(tips) == 0 {
		t.Fatal("post-drain window is empty")
	}
	// The cost model still charges every byte since the last verdict,
	// worker-fed or not.
	if want := wantTotal - checkedBefore; scanned != want {
		t.Fatalf("scanned = %d, want the %d-byte span since the last check", scanned, want)
	}
}

// TestAsyncGateDecodesUndrainedBacklog: with no worker running, a
// capture backlog larger than any bound the pipeline ever had (2 windows
// for the gate, 8 for the producer) neither stalls the producer nor the
// gate. The gate decodes the backlog itself and returns the synchronous
// twin's verdict, health and scanned span; no captured byte is dropped,
// and the drains that do run are counted exactly.
func TestAsyncGateDecodesUndrainedBacklog(t *testing.T) {
	asyncGateSetup(t)
	fixture := func(async bool) *windowFixture {
		pol := DefaultPolicy()
		pol.PktCount = 8
		pol.RequireModuleStride = false
		pol.Async = async
		f := newWindowFixture(t, pol)
		f.g.OCFG, f.g.ITC = asyncGateBench.ocfg, asyncGateBench.ig
		// Sixteen 512 B regions: a backlog of a dozen captured windows
		// still fits without wrapping past the last check.
		regions := make([]int, 16)
		for i := range regions {
			regions[i] = 512
		}
		f.tr.Out = ipt.NewToPA(regions...)
		f.tr.PSBPeriod = 256
		if async {
			f.g.EnableAsync(closedPool())
		}
		return f
	}
	sf, af := fixture(false), fixture(true)
	emit := func(n int) {
		emitGatePattern(sf, n)
		emitGatePattern(af, n)
	}
	var lastTotal, lastScanned, captured uint64
	check := func(step string) {
		t.Helper()
		rs, ra := sf.g.Check(), af.g.Check()
		if rs.Verdict != VerdictClean || rs.Health != HealthClean {
			t.Fatalf("%s: synchronous check %+v; the fixture's trained edges no longer apply", step, rs)
		}
		if !reflect.DeepEqual(ra, rs) {
			t.Fatalf("%s: async result %+v, sync %+v", step, ra, rs)
		}
		total := af.tr.Out.TotalWritten()
		scanned := af.g.Stats.BytesScanned - lastScanned
		if sf.g.Stats.BytesScanned != af.g.Stats.BytesScanned || scanned != total-lastTotal {
			t.Fatalf("%s: scanned %d bytes (sync %d in all), want the %d written since the last check",
				step, scanned, sf.g.Stats.BytesScanned, total-lastTotal)
		}
		lastTotal, lastScanned = total, af.g.Stats.BytesScanned
		// No dropped byte: the drains and the gate together decoded the
		// records and sync points the synchronous decoder holds.
		ad, sd := &af.g.main.win.dec, &sf.g.main.win.dec
		if ad.Consumed() != sd.Consumed() || !reflect.DeepEqual(ad.Tips(), sd.Tips()) ||
			!reflect.DeepEqual(ad.SyncPoints(), sd.SyncPoints()) {
			t.Fatalf("%s: async decoder holds %d records to offset %d, sync %d to %d",
				step, len(ad.Tips()), ad.Consumed(), len(sd.Tips()), sd.Consumed())
		}
		if n := af.g.AsyncPending(); n != 0 {
			t.Fatalf("%s: %d captures still pending after the check", step, n)
		}
	}
	// backlog emits n branches on both twins and returns how many
	// windows the async twin captured for them.
	backlog := func(n int) int {
		emit(n)
		pend := af.g.AsyncPending()
		captured += uint64(pend)
		return pend
	}

	// Captures before the first check find no window to feed: stale.
	preCheck := backlog(400)
	if preCheck == 0 {
		t.Fatal("setup: no region filled before the first check")
	}
	for af.g.AsyncDrainOne() {
	}
	check("first check")

	// A backlog above the old bounds, two windows drained, the rest left
	// to the gate.
	if n := backlog(1200); n <= 8 {
		t.Fatalf("setup: backlog of %d windows is within the old producer bound", n)
	}
	af.g.AsyncDrainOne()
	af.g.AsyncDrainOne()
	if fed, _ := AsyncDrainCounts(af.g); af.g.main.win.total <= lastTotal || fed != 2 {
		t.Fatalf("setup: two drains fed %d windows up to offset %d (last check at %d)", fed, af.g.main.win.total, lastTotal)
	}
	check("partly drained backlog")

	// The same backlog with no drain at all.
	if n := backlog(1200); n <= 8 {
		t.Fatalf("setup: backlog of %d windows is within the old producer bound", n)
	}
	check("undrained backlog")

	if fed, stale := AsyncDrainCounts(af.g); fed != 2 || stale != uint64(preCheck) {
		t.Fatalf("drains fed %d and dropped %d as stale; want 2 and %d", fed, stale, preCheck)
	}
	af.g.AsyncFlushStats()
	if got := af.g.Stats.AsyncWindows; got != captured {
		t.Fatalf("Stats.AsyncWindows = %d, want the %d captures", got, captured)
	}
	if af.g.Stats.Resyncs != 0 || sf.g.Stats.Resyncs != 0 {
		t.Fatalf("resyncs: async %d, sync %d; the backlog wrapped past a check", af.g.Stats.Resyncs, sf.g.Stats.Resyncs)
	}
}

// TestAsyncPoisonedWindowReplaysMalformedPath: a contained worker panic
// poisons the window; the next window() resolves it exactly like the
// synchronous malformed path (counted, cache dropped, error surfaced),
// and the one after that recovers from a fresh snapshot.
func TestAsyncPoisonedWindowReplaysMalformedPath(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 1<<16)
	for i := 0; i < 10; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, h, err := f.g.window(&f.g.main); err != nil || h != HealthClean {
		t.Fatalf("establishing window: health %v, err %v", h, err)
	}

	f.g.asyncMarkPanicked(errors.New("worker died mid-feed"))
	f.emitTIP(f.exec)
	_, _, _, h, err := f.g.window(&f.g.main)
	if h != HealthMalformed {
		t.Fatalf("poisoned window health = %v, want malformed", h)
	}
	if err == nil || !strings.Contains(err.Error(), "worker died mid-feed") {
		t.Fatalf("poisoned window err = %v, want the worker's error", err)
	}
	if f.g.Stats.Malformed != 1 {
		t.Fatalf("Stats.Malformed = %d, want 1", f.g.Stats.Malformed)
	}
	if f.g.main.win.src != nil {
		t.Fatal("poisoned window cache was retained")
	}
	f.g.AsyncFlushStats()
	if f.g.Stats.WorkerCrashes != 1 {
		t.Fatalf("Stats.WorkerCrashes = %d, want 1", f.g.Stats.WorkerCrashes)
	}

	// Recovery: the trace itself is intact, so a fresh snapshot decodes
	// clean — the poison does not stick past one resolution.
	f.emitTIP(f.exec)
	if _, _, _, h, err := f.g.window(&f.g.main); err != nil || h != HealthClean {
		t.Fatalf("recovery window: health %v, err %v", h, err)
	}
}

// TestAsyncWrapLossMatchesSyncClassification: when the stream outruns
// the buffer between checks, the loss must be classified against the
// last *verdict*, whatever the workers did with the span in between.
// Async and sync fixtures fed the identical emission schedule must agree
// on Resyncs and on every check's health and window. Two drain
// schedules reach the two ways a worker meets the wrap:
//   - predecode-then-wrap: workers pre-decode part of the span a
//     synchronous checker would lose, then the stream outruns the buffer;
//   - drain-after-wrap: workers first run once the buffer has wrapped
//     past s.win.total, so FeedRange refuses every captured range, the
//     drains feed nothing and count stale.
func TestAsyncWrapLossMatchesSyncClassification(t *testing.T) {
	type window struct {
		tips   []ipt.TIPRecord
		psb    uint64
		health TraceHealth
	}
	// A schedule is a list of steps: n > 0 emits n branches and flushes,
	// drain drains every pending capture (a no-op in the sync twin), and
	// check runs a window and settles the pipeline as the check does.
	const drain, check = -1, 0
	run := func(async bool, sched []int) (*Guard, []window, uint64) {
		pol := asyncPolicy()
		pol.Async = async
		var f *windowFixture
		if async {
			f = newAsyncFixture(t, pol, 256)
		} else {
			f = newWindowFixture(t, pol)
			f.tr.Out = ipt.NewToPA(256, 256)
			f.tr.PSBPeriod = 256
		}
		var wins []window
		var fedAtDrain uint64
		for _, step := range sched {
			switch {
			case step > 0:
				for i := 0; i < step; i++ {
					f.emitTIP(f.exec)
				}
				f.tr.Flush()
			case step == drain && async:
				fedAtDrain, _ = AsyncDrainCounts(f.g)
				for f.g.AsyncDrainOne() {
				}
			case step == check:
				tips, psb, _, h, err := f.g.window(&f.g.main)
				if err != nil {
					t.Fatalf("window (async=%v): %v", async, err)
				}
				wins = append(wins, window{append([]ipt.TIPRecord(nil), tips...), psb, h})
				if async {
					f.g.mu.Lock()
					f.g.asyncSettleLocked(f.g.main.async)
					f.g.mu.Unlock()
				}
			}
		}
		return f.g, wins, fedAtDrain
	}
	for _, tc := range []struct {
		name  string
		sched []int
		// evicted: the drain step runs after the wrap evicted s.win.total.
		evicted bool
	}{
		{"predecode-then-wrap", []int{100, check, 300, drain, 1200, check, 50, check}, false},
		{"drain-after-wrap", []int{100, check, 1500, drain, check, 50, check}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gs, ws, _ := run(false, tc.sched)
			ga, wa, fedAtDrain := run(true, tc.sched)
			if gs.Stats.Resyncs == 0 {
				t.Fatal("setup: the synchronous run never wrapped past a check")
			}
			if ga.Stats.Resyncs != gs.Stats.Resyncs {
				t.Fatalf("wrap-loss classification diverged: async %d resyncs, sync %d",
					ga.Stats.Resyncs, gs.Stats.Resyncs)
			}
			if !reflect.DeepEqual(wa, ws) {
				t.Fatalf("checked windows diverged:\n async %+v\n sync  %+v", wa, ws)
			}
			fed, stale := AsyncDrainCounts(ga)
			if tc.evicted && (stale == 0 || fed != fedAtDrain) {
				t.Fatalf("drains after the wrap: fed %d -> %d, stale %d; want nothing fed and stale > 0",
					fedAtDrain, fed, stale)
			}
			if !tc.evicted && fed == 0 {
				t.Fatal("no drain fed the window before the wrap; the schedule is vacuous")
			}
		})
	}
}

// TestAsyncDrainZeroAlloc: the steady-state capture-and-drain cycle
// (emit until a region fills, flush, drain the capture out of the ToPA)
// allocates nothing. A run is 200 cycles and AllocsPerRun's uncounted
// first run is the warm-up, so the count is exact rather than an
// average rounded down.
func TestAsyncDrainZeroAlloc(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 512)
	for i := 0; i < 10; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, h, err := f.g.window(&f.g.main); err != nil || h != HealthClean {
		t.Fatalf("establishing window: health %v, err %v", h, err)
	}
	const cycles = 200
	run := func() {
		for i := 0; i < cycles; i++ {
			for f.g.AsyncPending() == 0 {
				f.emitTIP(f.exec)
			}
			f.tr.Flush()
			for f.g.AsyncDrainOne() {
			}
		}
	}
	if allocs := testing.AllocsPerRun(1, run); allocs != 0 {
		t.Fatalf("%d capture-and-drain cycles allocated %.0f times, want 0", cycles, allocs)
	}
	if fed, stale := AsyncDrainCounts(f.g); fed < 2*cycles || stale != 0 {
		t.Fatalf("drains fed %d windows (%d stale) over %d cycles; want every capture fed", fed, stale, 2*cycles)
	}
}

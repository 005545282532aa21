package guard

// White-box tests of the asynchronous checking pipeline's mechanics on
// the synthetic-branch window fixture: region-full capture, the gate's
// bounded-staleness wait, producer backpressure, and the poisoned-window
// replay after a contained worker panic. Background goroutines are kept
// out of the picture (closedPool) so every schedule is deterministic;
// the racing end-to-end behavior is covered by the black-box tests in
// async_test.go and the chaos soak in internal/faults.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"flowguard/internal/trace/ipt"
)

// closedPool returns a pool whose workers and watchdog have already
// exited: captures still enqueue and wake-sends still land in the
// buffered channel, but nothing drains in the background, so the test
// controls the drain schedule completely.
func closedPool(queue int) *AsyncPool {
	p := NewAsyncPool(1, queue)
	p.Close()
	return p
}

// newAsyncFixture is the window fixture re-pointed at a small two-region
// ToPA (so region-full captures actually fire) with the async pipeline
// attached.
func newAsyncFixture(t *testing.T, pol Policy, region, queue int) *windowFixture {
	t.Helper()
	f := newWindowFixture(t, pol)
	f.tr.Out = ipt.NewToPA(region, region)
	f.tr.PSBPeriod = 256 // keep sync points resident in the tiny buffer
	f.g.EnableAsync(closedPool(queue))
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
	f := newAsyncFixture(t, asyncPolicy(), 512, 0)
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
	f := newAsyncFixture(t, asyncPolicy(), 512, 0)
	for i := 0; i < 100; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, h, err := f.g.window(&f.g.main); err != nil || h != HealthClean {
		t.Fatalf("establishing window: health %v, err %v", h, err)
	}
	// Re-align capture with the verdict, as the gate does.
	f.g.mu.Lock()
	asyncAfterCheckLocked(&f.g.main)
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

// TestAsyncGateDeadlineSheds: a backlog nobody drains forces the gate to
// its deadline; it sheds (counted) instead of deadlocking.
func TestAsyncGateDeadlineSheds(t *testing.T) {
	pol := asyncPolicy()
	pol.MaxLagWindows = 1
	pol.AsyncGateWait = 200 * time.Microsecond
	f := newAsyncFixture(t, pol, 256, 0)
	for i := 0; i < 1200; i++ {
		f.emitTIP(f.exec)
	}
	f.tr.Flush()
	if n := f.g.AsyncPending(); n <= 1 {
		t.Fatalf("backlog = %d, need > MaxLagWindows to force a wait", n)
	}
	start := time.Now()
	f.g.main.async.gateWait(f.g)
	if el := time.Since(start); el > 100*time.Millisecond {
		t.Fatalf("gate wait was not bounded: %v", el)
	}
	f.g.AsyncFlushStats()
	if f.g.Stats.WatchdogSheds == 0 {
		t.Fatal("deadline expiry did not count a shed")
	}
}

// TestAsyncBackpressureStallsProducer: with a tiny queue threshold and no
// workers, the producer must stall and then drain inline — the queue
// stays bounded and not a byte of trace is dropped.
func TestAsyncBackpressureStallsProducer(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 256, 1)
	for i := 0; i < 1500; i++ {
		f.emitTIP(f.exec)
	}
	f.tr.Flush()
	if n := f.g.AsyncPending(); n > 2 {
		t.Fatalf("pending = %d; backpressure did not bound the queue", n)
	}
	f.g.AsyncFlushStats()
	if f.g.Stats.BackpressureStalls == 0 {
		t.Fatal("no producer stalls counted")
	}
	// Stall, not drop: the stream is fully intact — a fresh window over
	// the resident buffer decodes cleanly with records in it.
	tips, _, _, h, err := f.g.window(&f.g.main)
	if err != nil || h != HealthClean {
		t.Fatalf("window after backpressure: health %v, err %v", h, err)
	}
	if len(tips) == 0 {
		t.Fatal("no records survived backpressure")
	}
	if f.g.Stats.Resyncs != 0 {
		t.Fatalf("backpressure caused %d spurious resyncs", f.g.Stats.Resyncs)
	}
}

// TestAsyncPoisonedWindowReplaysMalformedPath: a contained worker panic
// poisons the window; the next window() resolves it exactly like the
// synchronous malformed path (counted, cache dropped, error surfaced),
// and the one after that recovers from a fresh snapshot.
func TestAsyncPoisonedWindowReplaysMalformedPath(t *testing.T) {
	f := newAsyncFixture(t, asyncPolicy(), 1<<16, 0)
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
// last *verdict* — even if worker drains pre-decoded part of the span a
// synchronous checker would have lost. Async and sync fixtures fed the
// identical emission schedule must agree on Resyncs.
func TestAsyncWrapLossMatchesSyncClassification(t *testing.T) {
	run := func(async bool) *Guard {
		pol := asyncPolicy()
		pol.Async = async
		var f *windowFixture
		if async {
			f = newAsyncFixture(t, pol, 256, 0)
		} else {
			f = newWindowFixture(t, pol)
			f.tr.Out = ipt.NewToPA(256, 256)
			f.tr.PSBPeriod = 256
		}
		emit := func(n int) {
			for i := 0; i < n; i++ {
				f.emitTIP(f.exec)
			}
			f.tr.Flush()
		}
		check := func() {
			if _, _, _, _, err := f.g.window(&f.g.main); err != nil {
				t.Fatalf("window (async=%v): %v", async, err)
			}
			if async {
				f.g.mu.Lock()
				f.g.asyncBeforeCheckLocked(f.g.main.async)
				asyncAfterCheckLocked(&f.g.main)
				f.g.mu.Unlock()
			}
		}
		emit(100) // establish
		check()
		if async {
			// Pre-decode some of the span that is about to wrap away.
			emit(300)
			for f.g.AsyncDrainOne() {
			}
			emit(1200) // now outrun the 512-byte buffer
		} else {
			emit(1500)
		}
		check()
		emit(50)
		check()
		return f.g
	}
	gs, ga := run(false), run(true)
	if gs.Stats.Resyncs == 0 {
		t.Fatal("setup: the synchronous run never wrapped past a check")
	}
	if ga.Stats.Resyncs != gs.Stats.Resyncs {
		t.Fatalf("wrap-loss classification diverged: async %d resyncs, sync %d",
			ga.Stats.Resyncs, gs.Stats.Resyncs)
	}
}

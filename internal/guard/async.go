package guard

// Asynchronous checking pipeline (DESIGN.md §9). The synchronous design
// puts the whole decode+check latency of the window on the intercepted
// syscall's critical path; Griffin-style offloading moves the decode off
// it: every time a ToPA region fills, the capture records where the
// filled window ends and wakes a background worker pool, which feeds the
// window straight out of the ToPA into the stream's incremental window
// decoder between endpoints.
// The pipeline is bound to a stream, not to a process: it captures from
// the stream's ToPA and feeds the stream's window cache, which is the
// one the stream's checks read. The endpoint gate never waits for the
// workers: it takes the guard mutex and decodes whatever they have not
// fed yet itself. One stream's drains serialize on that mutex, so a gate
// that waited for workers to drain N windows would wait at least as long
// as decoding them itself.
//
// The pipeline is verdict-transparent by construction: workers feed the
// same winState the synchronous path feeds, drain boundaries do not
// change ipt.WindowDecoder results (Feed is chunking-invariant), and the
// gate always completes decoding up to the current write offset before
// deciding. The only place asynchrony could diverge is wrap-loss
// classification — a worker may pre-decode bytes a synchronous checker
// would have lost to the wrap — and winState.checkedTotal closes that
// hole: loss is always judged against the last verdict, not the last
// decode (see window()).

import (
	"runtime"
	"sync"

	"flowguard/internal/trace/ipt"
)

// DefaultAsyncWorkers sizes pools created on demand.
const DefaultAsyncWorkers = 2

// asyncState is a guard's attachment to an AsyncPool.
//
// Goroutine roles: the producer (the traced process's goroutine) runs
// the capture hook and the gate; workers drain. Everything under mu is
// shared.
type asyncState struct {
	pool *AsyncPool

	// Drain outcomes, guarded by the guard's mutex: captured windows fed
	// into the stream's decoder, and captures dropped as stale.
	fed, stale uint64

	mu sync.Mutex
	// pending holds the stream offsets at which the captured windows
	// end, oldest first. A capture copies nothing: a drain feeds the
	// bytes from where they lie in the ToPA.
	pending []uint64
	// Pipeline counters, folded into Stats after each check (and at
	// shutdown) under the guard's mutex.
	windows uint64
	maxLag  uint64
	crashes uint64
}

// EnableAsync attaches the guard's process stream — in multicore mode
// the main thread's demuxed stream — to an asynchronous checking pool:
// region-full events of the stream's ToPA start capturing filled windows
// for the pool's workers, and checks of the stream decode only the tail
// the workers have not fed yet. Call it after the guard's tracer is
// wired and before the workload runs; requires Policy.Async semantics
// but does not consult the flag (KernelModule does).
func (g *Guard) EnableAsync(p *AsyncPool) {
	s := &g.main
	g.mu.Lock()
	s.async = &asyncState{pool: p}
	g.mu.Unlock()
	s.tr.Out.OnRegionFull = g.asyncOnRegionFull
}

// AsyncPending returns the number of captured windows not yet drained.
func (g *Guard) AsyncPending() int {
	a := g.main.async
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// asyncOnRegionFull is the capture point, invoked by the process
// stream's ToPA at every region boundary on the producer's goroutine
// with no buffer lock held. It records where the filled window ends,
// wakes the pool and yields once.
//
//fg:hotpath runs at every filled trace region
func (g *Guard) asyncOnRegionFull(ev ipt.RegionFull) {
	a := g.main.async
	a.mu.Lock()
	a.pending = append(a.pending, ev.Total)
	a.windows++
	if n := uint64(len(a.pending)); n > a.maxLag {
		a.maxLag = n
	}
	a.mu.Unlock()
	select {
	case a.pool.wake <- g:
	default: // a wake is already queued; the backlog will be seen
	}
	if g.inCheck {
		// Re-entrant capture from the gate's own flush: this goroutine
		// holds g.mu, so yielding to workers (they need g.mu) cannot
		// make progress. The check drops the whole queue once window()
		// has decoded it.
		return
	}
	// The PMI that signals a filled region is a scheduling point: Griffin's
	// buffer-full interrupt wakes the worker kthread, which on a saturated
	// (or single-core) host preempts the traced process right here. One
	// yield models that hand-off — without it the producer can run from
	// capture straight into the endpoint and the gate inherits the whole
	// backlog onto the critical path it was built to keep clear.
	runtime.Gosched()
}

// AsyncDrainOne feeds the oldest captured window into the process
// stream's incremental decoder, exactly as the synchronous path would
// have fed it. It returns false when nothing was pending. Safe to call
// from any goroutine.
func (g *Guard) AsyncDrainOne() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return asyncDrainOneLocked(&g.main)
}

// asyncDrainOneLocked feeds [s.win.total, end) of the oldest capture
// straight out of the ToPA, the same FeedRange call window() makes.
// Lock order: the caller holds the guard's mutex and FeedRange takes the
// ToPA's, as at the gate.
//
//fg:hotpath the worker side of every captured window
func asyncDrainOneLocked(s *stream) bool {
	a := s.async
	a.mu.Lock()
	if len(a.pending) == 0 {
		a.mu.Unlock()
		return false
	}
	end := a.pending[0]
	n := copy(a.pending, a.pending[1:])
	a.pending = a.pending[:n]
	a.mu.Unlock()

	w, topa := &s.win, s.tr.Out
	if w.src != topa || w.asyncErr != nil || end <= w.total {
		// Stale capture: no check has initialized the window yet, the
		// window is poisoned, or an earlier drain or check already
		// decoded past this end.
		a.stale++
		return true
	}
	ok, ferr := topa.FeedRange(&w.dec, w.total, end)
	if !ok {
		// The buffer wrapped past the window's tail. Nothing was fed;
		// the gate's checkedTotal rule classifies the loss (checkedTotal
		// <= w.total, so the gate sees the same eviction).
		a.stale++
		return true
	}
	a.fed++
	w.total = end
	if ferr != nil {
		// Grammar corruption found ahead of the endpoint: remember it
		// for the gate, which replays the synchronous malformed path.
		w.asyncErr = ferr
		return true
	}
	// Forget history the ToPA no longer holds, keeping the between-gates
	// record tail bounded by the buffer capacity: window()'s trim, applied
	// earlier. The gate's own trim (with an equal-or-higher cutoff)
	// subsumes it, so decode state stays identical to the synchronous
	// schedule.
	total, held, _ := topa.State()
	w.trim(total - uint64(held))
	return true
}

// asyncSettleLocked runs after each check (guard mutex held): it folds
// the pipeline counters into Stats and drops the still-pending
// captures. The check's window() has decoded up to the write offset, so
// every pending end lies at or before s.win.total.
func (g *Guard) asyncSettleLocked(a *asyncState) {
	a.mu.Lock()
	g.Stats.AsyncWindows += a.windows
	a.windows = 0
	if a.maxLag > g.Stats.AsyncMaxLag {
		g.Stats.AsyncMaxLag = a.maxLag
	}
	g.Stats.WorkerCrashes += a.crashes
	a.crashes = 0
	a.pending = a.pending[:0]
	a.mu.Unlock()
}

// AsyncFlushStats folds any pipeline counters accumulated since the last
// gate into Stats (end-of-run accounting; KernelModule.Shutdown calls
// it for every guard).
func (g *Guard) AsyncFlushStats() {
	a := g.main.async
	if a == nil {
		return
	}
	g.mu.Lock()
	g.asyncSettleLocked(a)
	g.mu.Unlock()
}

// asyncMarkPanicked poisons the window after a contained worker panic
// that may have died mid-feed: the decoder state is suspect, so the next
// gate resolves the window under Policy.OnDegraded (FailClosed kills,
// SlowPathRetry recovers via a fresh full-precision decode, FailOpen
// proceeds unverified) instead of trusting it.
func (g *Guard) asyncMarkPanicked(err error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	a := g.main.async
	a.mu.Lock()
	a.crashes++
	a.mu.Unlock()
	if g.main.win.asyncErr == nil {
		g.main.win.asyncErr = err
	}
}

// asyncNoteCrash counts an injected (pre-pickup) worker crash: the
// worker died before touching any guard state, so the captured window
// stays queued and is re-drained by a sibling or decoded by the
// gate — containment with zero verdict effect.
func (g *Guard) asyncNoteCrash() {
	a := g.main.async
	a.mu.Lock()
	a.crashes++
	a.mu.Unlock()
}

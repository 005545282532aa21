package guard

// Asynchronous checking pipeline (DESIGN.md §9). The synchronous design
// puts the whole decode+check latency of the window on the intercepted
// syscall's critical path; Griffin-style offloading moves the decode off
// it: every time a ToPA region fills, the filled span is captured (copied
// out while still resident) and handed to a background worker pool that
// advances the stream's incremental window decoder between endpoints.
// The pipeline is bound to a stream, not to a process: it captures from
// the stream's ToPA and feeds the stream's window cache, which is the
// one the stream's checks read. The endpoint gate then only waits for
// the pipeline to catch up to the staleness bound and decodes the
// residual tail itself.
//
// The pipeline is verdict-transparent by construction: workers feed the
// same winState the synchronous path feeds, chunk boundaries do not
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
	"time"

	"flowguard/internal/trace/ipt"
)

// Defaults for the zero values of the async Policy knobs.
const (
	// DefaultMaxLagWindows is the staleness bound: a gate takes at most
	// this many captured-but-unchecked windows onto the critical path
	// without first waiting for the workers.
	DefaultMaxLagWindows = 2
	// DefaultAsyncGateWait bounds the gate's catch-up wait; simulated
	// windows decode in microseconds, so 2ms of grace covers deep
	// backlogs while keeping a wedged pool detectable quickly.
	DefaultAsyncGateWait = 2 * time.Millisecond
	// DefaultAsyncQueue is the pending-window backpressure threshold.
	DefaultAsyncQueue = 8
	// DefaultAsyncWorkers sizes pools created on demand.
	DefaultAsyncWorkers = 2
)

// asyncGatePoll is the gate's and the producer's timed wait step, the
// fallback after the yield spins. Sleeps this short round up to the
// scheduler's timer granularity (a millisecond on some kernels), which
// is why the spin phase comes first: a pipeline that is actively
// draining is caught within microseconds, and the sleep only paces
// waits that are going to be long anyway.
const asyncGatePoll = 20 * time.Microsecond

// asyncGateSpins is the number of runtime.Gosched yields the gate (and
// the backpressure stall) burns before falling back to timed sleeps.
const asyncGateSpins = 128

// asyncStallSpins bounds the producer's backpressure stall before it
// sheds to draining the oldest window itself.
const asyncStallSpins = 25

// asyncChunk is one captured trace span: the region-full capture copies
// [start, start+len(buf)) out of the ToPA while it is still resident.
type asyncChunk struct {
	start uint64
	buf   []byte
}

// asyncState is a guard's attachment to an AsyncPool.
//
// Goroutine roles: the producer (the traced process's goroutine) runs
// the capture hook and the gate; workers and the watchdog drain. cursor
// is only touched by the producer. Everything under mu is shared.
type asyncState struct {
	pool *AsyncPool

	// cursor is the stream offset up to which capture has copied bytes
	// out; producer-goroutine-confined.
	cursor uint64

	// Drain outcomes, guarded by the guard's mutex: captured chunks fed
	// into the stream's decoder, and chunks dropped as stale.
	fed, stale uint64

	mu      sync.Mutex
	pending []asyncChunk
	free    [][]byte // recycled chunk buffers
	// oldestAt timestamps the head of pending (watchdog staleness).
	oldestAt time.Time
	// Pipeline counters, folded into Stats at each gate (and at
	// shutdown) under the guard's mutex.
	windows uint64
	maxLag  uint64
	stalls  uint64
	sheds   uint64
	crashes uint64
}

// EnableAsync attaches the guard's process stream — in multicore mode
// the main thread's demuxed stream — to an asynchronous checking pool:
// region-full events of the stream's ToPA start capturing filled windows
// for the pool's workers, and checks of the stream become "wait until
// checked-lag <= MaxLagWindows or deadline, then verdict". Call it after
// the guard's tracer is wired and before the workload runs; requires
// Policy.Async semantics but does not consult the flag (KernelModule
// does).
func (g *Guard) EnableAsync(p *AsyncPool) {
	s := &g.main
	g.mu.Lock()
	s.async = &asyncState{pool: p, cursor: s.tr.Out.TotalWritten()}
	g.mu.Unlock()
	s.tr.Out.OnRegionFull = g.asyncOnRegionFull
	p.register(g)
}

// AsyncPending returns the number of captured windows not yet drained.
func (g *Guard) AsyncPending() int {
	a := g.main.async
	if a == nil {
		return 0
	}
	return a.pendingLen()
}

func (a *asyncState) pendingLen() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.pending)
}

// grabBuf pops a recycled chunk buffer (or nil: append allocates the
// first few rounds, then the freelist carries the steady state).
func (a *asyncState) grabBuf() []byte {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.free)
	if n == 0 {
		return nil
	}
	buf := a.free[n-1]
	a.free = a.free[:n-1]
	return buf
}

// asyncOnRegionFull is the capture point, invoked by the process
// stream's ToPA at every region boundary on the producer's goroutine
// with no buffer lock held. It copies the span since the last capture
// out of the ToPA (the span is at most one region deep, so it is always
// still resident), enqueues it, and wakes the pool.
//
//fg:hotpath runs at every filled trace region
func (g *Guard) asyncOnRegionFull(ev ipt.RegionFull) {
	a, topa := g.main.async, g.main.tr.Out
	buf := a.grabBuf()
	if buf == nil {
		buf = g.asyncNewBuf()
	}
	nb, ok := topa.AppendSince(buf[:0], a.cursor)
	if !ok {
		// The cursor itself was outrun — only reachable if capture was
		// re-aligned across a reset. Skip this span; the gate's
		// AppendSince/loss classification covers it.
		a.recycle(buf)
		a.cursor = topa.TotalWritten()
		return
	}
	if len(nb) == 0 {
		a.recycle(nb)
		return
	}
	full := a.enqueue(asyncChunk{start: a.cursor, buf: nb})
	a.cursor += uint64(len(nb))
	g.asyncNotify(full)
}

// asyncNewBuf is the cold allocation path for a first-use chunk buffer,
// kept out of the annotated capture hook. Captures span at most one
// region, so the default region size is the steady-state capacity.
//
//fg:cold first-use buffer allocation, amortized to zero by the recycle pool
func (g *Guard) asyncNewBuf() []byte {
	return make([]byte, 0, DefaultToPARegion)
}

// enqueue appends a captured chunk and reports whether the queue is over
// the backpressure threshold.
//
//fg:hotpath
func (a *asyncState) enqueue(c asyncChunk) bool {
	a.mu.Lock()
	if len(a.pending) == 0 {
		a.oldestAt = time.Now()
	}
	a.pending = append(a.pending, c)
	a.windows++
	if n := uint64(len(a.pending)); n > a.maxLag {
		a.maxLag = n
	}
	full := len(a.pending) > a.queueLimit()
	a.mu.Unlock()
	return full
}

// queueLimit returns the backpressure threshold. Caller holds a.mu (the
// pool pointer is immutable after EnableAsync).
func (a *asyncState) queueLimit() int {
	if a.pool.queue > 0 {
		return a.pool.queue
	}
	return DefaultAsyncQueue
}

func (a *asyncState) recycle(buf []byte) {
	if cap(buf) == 0 {
		return
	}
	a.mu.Lock()
	if len(a.free) < 64 {
		a.free = append(a.free, buf[:0])
	}
	a.mu.Unlock()
}

// asyncNotify wakes the pool and, when the queue crossed the
// backpressure threshold, stalls the producer: the tracer waits a
// bounded interval for the workers and then drains the oldest window on
// its own goroutine. Trace is never dropped — backpressure converts an
// overloaded pipeline into producer stalls, preserving the unmarked-loss
// classification (a wrap loss still only happens when the stream really
// outruns the buffer, exactly as in synchronous mode).
func (g *Guard) asyncNotify(full bool) {
	a := g.main.async
	select {
	case a.pool.wake <- g:
	default: // a wake is already queued; the backlog will be seen
	}
	if g.inCheck {
		// Re-entrant capture from the gate's own flush: this goroutine
		// holds g.mu, so neither yielding to workers (they need g.mu)
		// nor draining inline (recursive lock) can make progress. The
		// gate drops the whole queue right after window() anyway.
		return
	}
	// The PMI that signals a filled region is a scheduling point: Griffin's
	// buffer-full interrupt wakes the worker kthread, which on a saturated
	// (or single-core) host preempts the traced process right here. One
	// yield models that hand-off — without it the producer can run from
	// capture straight into the endpoint and the gate inherits the whole
	// backlog onto the critical path it was built to keep clear.
	runtime.Gosched()
	if !full {
		return
	}
	a.mu.Lock()
	a.stalls++
	a.mu.Unlock()
	limit := a.queueLimit()
	for i := 0; i < asyncGateSpins+asyncStallSpins; i++ {
		if i < asyncGateSpins {
			runtime.Gosched() // cede the producer's core to the workers
		} else {
			time.Sleep(asyncGatePoll)
		}
		if a.pendingLen() <= limit {
			return
		}
	}
	// The pool cannot keep up: shed to synchronous draining on the
	// producer. This is the stall-not-drop guarantee's backstop — it
	// also guarantees progress when every worker is wedged or crashed.
	for a.pendingLen() > limit {
		if !g.AsyncDrainOne() {
			return
		}
	}
}

// gateWait blocks (lock-free, bounded) until the captured backlog is
// within Policy.MaxLagWindows or the deadline expires. On expiry it
// counts a shed: the pipeline has fallen behind and the gate will do the
// backlog synchronously rather than deadlock waiting.
func (a *asyncState) gateWait(g *Guard) {
	bound := g.Policy.MaxLagWindows
	if bound <= 0 {
		bound = DefaultMaxLagWindows
	}
	if a.pendingLen() <= bound {
		return
	}
	deadline := g.Policy.AsyncGateWait
	if deadline <= 0 {
		deadline = DefaultAsyncGateWait
	}
	start := time.Now()
	for spins := 0; ; spins++ {
		select {
		case a.pool.wake <- g:
		default:
		}
		if spins < asyncGateSpins {
			runtime.Gosched()
		} else {
			time.Sleep(asyncGatePoll)
		}
		if a.pendingLen() <= bound {
			return
		}
		if time.Since(start) >= deadline {
			a.mu.Lock()
			a.sheds++
			a.mu.Unlock()
			return
		}
	}
}

// AsyncDrainOne feeds the oldest captured window into the process
// stream's incremental decoder, exactly as the synchronous path would
// have fed it. It returns false when nothing was pending. Safe to call
// from any goroutine (workers, watchdog, producer backpressure).
func (g *Guard) AsyncDrainOne() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return asyncDrainOneLocked(&g.main)
}

//fg:hotpath the worker side of every captured window
func asyncDrainOneLocked(s *stream) bool {
	a := s.async
	a.mu.Lock()
	if len(a.pending) == 0 {
		a.mu.Unlock()
		return false
	}
	c := a.pending[0]
	n := copy(a.pending, a.pending[1:])
	a.pending = a.pending[:n]
	if n > 0 {
		a.oldestAt = time.Now()
	}
	a.mu.Unlock()

	w := &s.win
	if w.src != s.tr.Out || w.asyncErr != nil || c.start != w.total {
		// Stale capture: the window was reset, resynchronized, or
		// poisoned since this span was captured (or no check has
		// initialized the window yet). The gate's own snapshot covers
		// the stream; feeding this chunk would corrupt decoder state.
		a.stale++
		a.recycle(c.buf)
		return true
	}
	a.fed++
	old := len(w.buf)
	w.buf = append(w.buf, c.buf...)
	w.total += uint64(len(c.buf))
	a.recycle(c.buf)
	if ferr := w.dec.Feed(w.buf[old:]); ferr != nil {
		// Grammar corruption found ahead of the endpoint: remember it
		// for the gate, which replays the synchronous malformed path.
		w.asyncErr = ferr
		return true
	}
	asyncTrimLocked(s)
	return true
}

// asyncTrimLocked forgets history the ToPA no longer holds, keeping the
// between-gates window footprint bounded by the buffer capacity. It is
// the same rule window() applies at every gate, applied earlier; the
// gate's own trim (with an equal-or-higher cutoff) subsumes it, so decode
// state stays identical to the synchronous schedule.
//
//fg:hotpath
func asyncTrimLocked(s *stream) {
	w, topa := &s.win, s.tr.Out
	if lo := topa.TotalWritten() - uint64(topa.Held()); lo > w.base && lo <= w.total {
		n := copy(w.buf, w.buf[lo-w.base:])
		w.buf = w.buf[:n]
		w.base = lo
		w.dec.DropBefore(int(lo))
	}
}

// asyncBeforeCheckLocked runs at gate entry (guard mutex held): it folds
// the pipeline counters into Stats and discards the still-pending
// captured chunks — their bytes are necessarily still resident in the
// ToPA (otherwise the checkedTotal loss rule resyncs), so window()'s
// incremental AppendSince covers them with identical content and the
// copies are redundant.
func (g *Guard) asyncBeforeCheckLocked(a *asyncState) {
	a.mu.Lock()
	g.Stats.AsyncWindows += a.windows
	a.windows = 0
	if a.maxLag > g.Stats.AsyncMaxLag {
		g.Stats.AsyncMaxLag = a.maxLag
	}
	g.Stats.BackpressureStalls += a.stalls
	a.stalls = 0
	g.Stats.WatchdogSheds += a.sheds
	a.sheds = 0
	g.Stats.WorkerCrashes += a.crashes
	a.crashes = 0
	a.dropPendingLocked()
	a.mu.Unlock()
}

// asyncAfterCheckLocked re-aligns the stream's capture cursor with the
// verdict: everything up to s.win.total has been checked, and captures
// made while the check itself flushed trace are superseded by it.
func asyncAfterCheckLocked(s *stream) {
	a := s.async
	a.mu.Lock()
	a.dropPendingLocked()
	a.mu.Unlock()
	a.cursor = s.win.total
}

// dropPendingLocked empties the captured-window queue, recycling the
// chunk buffers. Caller holds a.mu.
func (a *asyncState) dropPendingLocked() {
	for _, c := range a.pending {
		if len(a.free) < 64 {
			a.free = append(a.free, c.buf[:0])
		}
	}
	a.pending = a.pending[:0]
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
	g.asyncBeforeCheckLocked(a)
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
// worker died before touching any guard state, so the captured chunk
// stays queued and is re-drained by a sibling, the watchdog, or the
// gate — containment with zero verdict effect.
func (g *Guard) asyncNoteCrash() {
	a := g.main.async
	a.mu.Lock()
	a.crashes++
	a.mu.Unlock()
}

package guard

// AsyncPool: the worker side of the asynchronous checking pipeline
// (DESIGN.md §9). Workers drain captured trace windows into their
// guards' incremental decoders between endpoints; whatever they have not
// fed when an endpoint fires, the gate decodes itself, so a wedged or
// dead worker delays nothing but its own drains. Failure containment is
// explicit: a worker panic is recovered, counted, and — if it can have
// touched decoder state — resolved under Policy.OnDegraded at the next
// gate, never propagated into the traced process's goroutine.

import (
	"fmt"
	"sync"
	"time"
)

// WorkerFaults injects worker-side faults into a pool — the
// fault-injection harness (internal/faults) implements it. Both hooks
// are consulted at task pickup, before the worker touches any guard
// state, so injected failures are containment tests with no effect on
// verdicts.
type WorkerFaults interface {
	// WorkerStall returns how long the worker should wedge before its
	// task (zero = no fault this time).
	WorkerStall() time.Duration
	// WorkerCrash reports whether the worker should crash at pickup.
	WorkerCrash() bool
}

// injectedCrash is the panic value of an injected WorkerCrash; the
// recovery path distinguishes it from a real worker bug.
type injectedCrash struct{}

// AsyncPoolStats is a point-in-time snapshot of pool-level accounting.
type AsyncPoolStats struct {
	// Tasks is the number of wake-ups workers processed.
	Tasks uint64
	// Crashes is the number of contained worker panics.
	Crashes uint64
	// Stalls is the number of injected worker stalls served.
	Stalls uint64
}

// AsyncPool runs the background workers. One pool serves any number of
// guards (workers parallelize across guards; a single guard's stream
// drains serially under its own mutex).
type AsyncPool struct {
	wake chan *Guard
	quit chan struct{}
	wg   sync.WaitGroup

	mu     sync.Mutex
	faults WorkerFaults
	stats  AsyncPoolStats
}

// NewAsyncPool starts a pool with the given number of workers
// (0 = DefaultAsyncWorkers). Close it when the workload is done.
func NewAsyncPool(workers int) *AsyncPool {
	if workers <= 0 {
		workers = DefaultAsyncWorkers
	}
	p := &AsyncPool{
		wake: make(chan *Guard, 4*workers+16),
		quit: make(chan struct{}),
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// InjectFaults installs a worker-side fault injector (tests and the
// chaos soak). Call before the workload runs.
func (p *AsyncPool) InjectFaults(f WorkerFaults) {
	p.mu.Lock()
	p.faults = f
	p.mu.Unlock()
}

// Snapshot returns the pool-level counters.
func (p *AsyncPool) Snapshot() AsyncPoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Close stops the workers and waits for them. Captured windows still
// pending are left to their guards' gates (or discarded with the
// guards); Close never blocks on guard state.
func (p *AsyncPool) Close() {
	close(p.quit)
	p.wg.Wait()
}

func (p *AsyncPool) worker() {
	defer p.wg.Done()
	for {
		select {
		case g := <-p.wake:
			p.runTask(g)
		case <-p.quit:
			return
		}
	}
}

// runTask drains one guard's backlog, with fault injection and panic
// containment. A contained panic never kills the worker loop: the
// goroutine resumes waiting for work, modeling a respawned worker.
func (p *AsyncPool) runTask(g *Guard) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(injectedCrash); ok {
			// The injected crash fired before any guard state was
			// touched: the backlog stays queued for a sibling or the
			// gate. Containment with zero state effect.
			g.asyncNoteCrash()
		} else {
			// A real worker bug may have died mid-feed; the decoder
			// state is suspect. Poison the window so the next gate
			// resolves it under Policy.OnDegraded.
			g.asyncMarkPanicked(fmt.Errorf("async worker panic: %v", r))
		}
		p.mu.Lock()
		p.stats.Crashes++
		p.mu.Unlock()
	}()
	p.mu.Lock()
	p.stats.Tasks++
	f := p.faults
	p.mu.Unlock()
	if f != nil {
		if d := f.WorkerStall(); d > 0 {
			// A wedged worker: holds no locks, just fails to make
			// progress. The gate decodes the backlog meanwhile.
			p.mu.Lock()
			p.stats.Stalls++
			p.mu.Unlock()
			time.Sleep(d)
		}
		if f.WorkerCrash() {
			panic(injectedCrash{})
		}
	}
	for g.AsyncDrainOne() {
	}
}

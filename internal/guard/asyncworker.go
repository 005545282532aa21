package guard

// AsyncPool: the worker side of the asynchronous checking pipeline
// (DESIGN.md §9). Workers drain captured trace windows into their
// guards' incremental decoders between endpoints; a watchdog catches
// pipelines whose workers wedged or died and sheds their backlog to
// synchronous draining. Failure containment is explicit: a worker panic
// is recovered, counted, and — if it can have touched decoder state —
// resolved under Policy.OnDegraded at the next gate, never propagated
// into the traced process's goroutine.

import (
	"fmt"
	"sync"
	"time"
)

// Watchdog cadence and staleness threshold: a backlog older than
// watchdogStallAfter with no worker progress means the pool has fallen
// behind (wedged, crashed, or oversubscribed) and the backlog is drained
// synchronously instead of waiting for it to deadlock the next gate.
const (
	watchdogEvery      = 200 * time.Microsecond
	watchdogStallAfter = time.Millisecond
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
	// WatchdogSheds is the number of fallen-behind backlogs the watchdog
	// drained synchronously.
	WatchdogSheds uint64
}

// AsyncPool runs the background workers and the watchdog. One pool
// serves any number of guards (workers parallelize across guards;
// a single guard's stream drains serially under its own mutex).
type AsyncPool struct {
	wake chan *Guard
	quit chan struct{}
	wg   sync.WaitGroup

	// queue is the per-guard backpressure threshold (DefaultAsyncQueue;
	// tests lower it).
	queue int

	mu     sync.Mutex
	guards []*Guard
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
		wake:  make(chan *Guard, 4*workers+16),
		quit:  make(chan struct{}),
		queue: DefaultAsyncQueue,
	}
	p.wg.Add(workers + 1)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	go p.watchdog()
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

// Close stops the workers and the watchdog and waits for them. Captured
// windows still pending are left to their guards' gates (or discarded
// with the guards); Close never blocks on guard state.
func (p *AsyncPool) Close() {
	close(p.quit)
	p.wg.Wait()
}

// register attaches a guard (EnableAsync calls it).
func (p *AsyncPool) register(g *Guard) {
	p.mu.Lock()
	p.guards = append(p.guards, g)
	p.mu.Unlock()
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
			// touched: the backlog stays queued for a sibling, the
			// watchdog, or the gate. Containment with zero state effect.
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
			// progress. The watchdog or the gate's deadline covers the
			// backlog meanwhile.
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

// watchdog scans registered guards for backlogs nobody is draining — a
// wedged worker, a crash storm, or an oversubscribed pool — and sheds
// them to synchronous draining on its own goroutine. This bounds how
// long the bounded-staleness gate can be forced to its deadline: the
// pipeline degrades to synchronous checking rather than deadlocking.
func (p *AsyncPool) watchdog() {
	defer p.wg.Done()
	tick := time.NewTicker(watchdogEvery)
	defer tick.Stop()
	for {
		select {
		case <-p.quit:
			return
		case <-tick.C:
			p.mu.Lock()
			guards := append([]*Guard(nil), p.guards...)
			p.mu.Unlock()
			for _, g := range guards {
				a := g.main.async
				a.mu.Lock()
				stale := len(a.pending) > 0 && time.Since(a.oldestAt) > watchdogStallAfter
				if stale {
					a.sheds++
				}
				a.mu.Unlock()
				if stale {
					p.mu.Lock()
					p.stats.WatchdogSheds++
					p.mu.Unlock()
					for g.AsyncDrainOne() {
					}
				}
			}
		}
	}
}

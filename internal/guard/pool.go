package guard

import (
	"sync"
	"sync/atomic"
	"time"
)

// defaultPoolBackoff is the base sleep between admission retries under
// SlowPathRetry when RetryBackoff is unset; each attempt doubles it.
const defaultPoolBackoff = 100 * time.Microsecond

// CheckPool bounds how many flow checks run simultaneously across a set
// of protected processes — the reproduction of §6's offloading
// suggestion ("the checking overhead could be removed from the
// protected execution" by dedicating cores to checking). Each process
// still blocks on its own endpoint check (the verdict gates the
// syscall), but checks of *different* processes proceed concurrently up
// to the configured number of checker cores.
//
// Do runs on the calling goroutine after acquiring a checker slot, so
// all guard-internal state stays confined to the process's goroutine;
// the pool only supplies admission control plus aggregate accounting.
//
// The zero-value configuration (no Deadline, no QueueLimit) blocks
// until a slot frees, exactly the original behavior. With a Deadline
// and/or QueueLimit set, a check that cannot be admitted is never
// dropped silently: it is retried (SlowPathRetry, with exponential
// backoff) and ultimately shed under the guard's own Policy.OnDegraded,
// producing a counted fail-open or fail-closed verdict.
type CheckPool struct {
	slots chan struct{}

	// Deadline bounds how long one admission attempt may wait for a
	// checker slot; zero waits indefinitely.
	Deadline time.Duration
	// QueueLimit bounds how many checks may be queued waiting for a
	// slot; zero is unlimited. A check arriving beyond the limit gets
	// one non-blocking admission try, then is retried or shed.
	QueueLimit int
	// RetryBackoff is the base sleep between admission retries under
	// SlowPathRetry, doubling per attempt (defaultPoolBackoff if zero).
	RetryBackoff time.Duration
	// Stall, if non-nil, is consulted after every slot acquisition and
	// the returned duration slept while holding the slot — the
	// fault-injection hook modeling a wedged checker core.
	Stall func() time.Duration

	waiters atomic.Int64

	mu        sync.Mutex
	checks    uint64
	shed      uint64
	fairSheds uint64
	retried   uint64
	waitNanos int64
	busyNanos int64
}

// NewCheckPool returns a pool admitting up to workers concurrent checks.
// workers < 1 is treated as 1 (fully serialized checking).
func NewCheckPool(workers int) *CheckPool {
	if workers < 1 {
		workers = 1
	}
	return &CheckPool{slots: make(chan struct{}, workers)}
}

// Workers returns the pool's concurrency bound.
func (p *CheckPool) Workers() int { return cap(p.slots) }

// acquire tries to obtain a checker slot within one Deadline window,
// honoring the queue bound. It reports whether the slot was obtained.
func (p *CheckPool) acquire() bool {
	if p.QueueLimit > 0 && p.waiters.Load() >= int64(p.QueueLimit) {
		// Queue full: one non-blocking try, then give up this attempt.
		select {
		case p.slots <- struct{}{}:
			return true
		default:
			return false
		}
	}
	p.waiters.Add(1)
	defer p.waiters.Add(-1)
	if p.Deadline <= 0 {
		p.slots <- struct{}{}
		return true
	}
	timer := time.NewTimer(p.Deadline)
	defer timer.Stop()
	select {
	case p.slots <- struct{}{}:
		return true
	case <-timer.C:
		return false
	}
}

// Do runs g.Check() under a checker slot and returns its result. When
// the pool is saturated past the deadline/queue bounds, the check is
// governed by g.Policy.OnDegraded: SlowPathRetry re-queues with backoff
// up to the policy's retry budget, and an unadmitted check is shed with
// an explicit fail-open or fail-closed verdict, tallied in both the
// pool's and the guard's statistics.
func (p *CheckPool) Do(g *Guard) Result {
	t0 := time.Now()
	acquired := p.acquire()
	if !acquired && g.Policy.OnDegraded == SlowPathRetry {
		backoff := p.RetryBackoff
		if backoff <= 0 {
			backoff = defaultPoolBackoff
		}
		for attempt := 0; attempt < DefaultRetryMax && !acquired; attempt++ {
			p.mu.Lock()
			p.retried++
			p.mu.Unlock()
			time.Sleep(backoff << uint(attempt))
			acquired = p.acquire()
		}
	}
	if !acquired {
		res := p.shedResult(g)
		g.noteShed(&res)
		p.mu.Lock()
		p.shed++
		p.waitNanos += time.Since(t0).Nanoseconds()
		p.mu.Unlock()
		return res
	}
	return p.run(g, t0)
}

// TryDo runs g.Check() only if a checker slot is free right now; it
// never queues. The FleetPool gives over-fair-share tenants exactly
// this best-effort admission: spare capacity is theirs, a queue slot is
// not. The boolean reports whether the check ran — a false return has
// touched no accounting, so the caller decides how to shed.
func (p *CheckPool) TryDo(g *Guard) (Result, bool) {
	t0 := time.Now()
	select {
	case p.slots <- struct{}{}:
	default:
		return Result{}, false
	}
	return p.run(g, t0), true
}

// ShedFair sheds a check that per-tenant fairness refused to admit: the
// same policy-governed verdict and no-silent-drop accounting as an
// overload shed (it counts in Shed, preserving checks == admitted +
// shed), plus the fairness counters on both ledgers.
func (p *CheckPool) ShedFair(g *Guard) Result {
	res := p.shedResult(g)
	res.Reason = "per-tenant fair share exceeded: check shed"
	g.noteFairnessShed(&res)
	p.mu.Lock()
	p.shed++
	p.fairSheds++
	p.mu.Unlock()
	return res
}

// run executes an admitted check while holding a slot. t0 is the
// admission start time (queue wait is t0 → now).
func (p *CheckPool) run(g *Guard, t0 time.Time) Result {
	t1 := time.Now()
	if p.Stall != nil {
		if d := p.Stall(); d > 0 {
			time.Sleep(d) // a wedged checker core holds its slot
		}
	}
	res := g.Check()
	busy := time.Since(t1)
	<-p.slots
	p.mu.Lock()
	p.checks++
	p.waitNanos += t1.Sub(t0).Nanoseconds()
	p.busyNanos += busy.Nanoseconds()
	p.mu.Unlock()
	return res
}

// shedResult synthesizes the policy-governed verdict for a check the
// pool could not admit. FailOpen lets the endpoint through unverified;
// everything else (FailClosed, and SlowPathRetry with its admission
// retries exhausted) refuses to vouch and fails closed.
func (p *CheckPool) shedResult(g *Guard) Result {
	res := Result{Degraded: true, OtherCycles: CyclesPerInterception}
	if g.Policy.OnDegraded == FailOpen {
		res.Verdict = VerdictClean
		res.Reason = "checker pool overloaded: check shed (fail open)"
		return res
	}
	res.Verdict = VerdictViolation
	res.Reason = "checker pool overloaded: check shed (fail closed)"
	return res
}

// PoolStats is the pool's aggregate accounting.
type PoolStats struct {
	// Checks is the number of checks admitted.
	Checks uint64
	// Shed is the number of checks the pool could not admit; each one
	// produced a policy-governed degraded verdict, never a silent drop.
	// Fairness sheds are included (Shed counts every unadmitted check,
	// whatever the reason, so Checks + Shed is the total offered load).
	Shed uint64
	// FairnessSheds is the subset of Shed forced by per-tenant fairness
	// rather than raw overload.
	FairnessSheds uint64
	// Retried is the number of admission retries under SlowPathRetry.
	Retried uint64
	// Wait is the total time checks spent queued for a slot.
	Wait time.Duration
	// Busy is the total wall time spent inside admitted checks; with N
	// workers and saturated demand it accumulates ~N× faster than the
	// elapsed time.
	Busy time.Duration
}

// Snapshot returns the accumulated pool statistics.
func (p *CheckPool) Snapshot() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{
		Checks:        p.checks,
		Shed:          p.shed,
		FairnessSheds: p.fairSheds,
		Retried:       p.retried,
		Wait:          time.Duration(p.waitNanos),
		Busy:          time.Duration(p.busyNanos),
	}
}

// Merge adds o into s (fleet aggregation across shards).
func (s *PoolStats) Merge(o PoolStats) {
	s.Checks += o.Checks
	s.Shed += o.Shed
	s.FairnessSheds += o.FairnessSheds
	s.Retried += o.Retried
	s.Wait += o.Wait
	s.Busy += o.Busy
}

package guard

import (
	"sync"
	"time"
)

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
// Do waits for its slot however long that takes, as the intercepted
// syscall waits for its verdict (§5.2): no timer ever sheds a check.
// The only shed is FleetPool's per-tenant fairness refusal (ShedFair).
type CheckPool struct {
	slots chan struct{}

	// Stall, if non-nil, is consulted after every slot acquisition and
	// the returned duration slept while holding the slot — the
	// fault-injection hook modeling a wedged checker core.
	Stall func() time.Duration

	mu     sync.Mutex
	checks uint64
	sheds  uint64
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

// Do waits for a checker slot, runs g.Check() under it and returns its
// result.
func (p *CheckPool) Do(g *Guard) Result {
	p.slots <- struct{}{}
	return p.run(g)
}

// TryDo runs g.Check() only if a checker slot is free right now; it
// never queues. The FleetPool gives over-fair-share tenants exactly
// this best-effort admission: spare capacity is theirs, a queue slot is
// not. The boolean reports whether the check ran — a false return has
// touched no accounting, so the caller decides how to shed.
func (p *CheckPool) TryDo(g *Guard) (Result, bool) {
	select {
	case p.slots <- struct{}{}:
	default:
		return Result{}, false
	}
	return p.run(g), true
}

// ShedFair sheds a check that per-tenant fairness refused to admit.
// The verdict follows g.Policy.OnDegraded: FailOpen lets the endpoint
// through unverified; FailClosed and SlowPathRetry refuse to vouch and
// fail closed. The shed counts on both ledgers, so checks == admitted +
// shed covers every offered check and nothing is dropped silently.
func (p *CheckPool) ShedFair(g *Guard) Result {
	res := Result{
		Degraded:    true,
		Verdict:     VerdictViolation,
		OtherCycles: CyclesPerInterception,
		Reason:      "per-tenant fair share exceeded: check shed",
	}
	if g.Policy.OnDegraded == FailOpen {
		res.Verdict = VerdictClean
	}
	g.noteFairnessShed(&res)
	p.mu.Lock()
	p.sheds++
	p.mu.Unlock()
	return res
}

// run executes an admitted check while holding a slot.
func (p *CheckPool) run(g *Guard) Result {
	if p.Stall != nil {
		if d := p.Stall(); d > 0 {
			time.Sleep(d) // a wedged checker core holds its slot
		}
	}
	res := g.Check()
	<-p.slots
	p.mu.Lock()
	p.checks++
	p.mu.Unlock()
	return res
}

// PoolStats is the pool's aggregate accounting.
type PoolStats struct {
	// Checks is the number of checks admitted.
	Checks uint64
	// Shed is the number of checks the pool did not admit; each one
	// produced a policy-governed degraded verdict, never a silent drop,
	// so Checks + Shed is the total offered load.
	Shed uint64
	// FairnessSheds is the subset of Shed forced by per-tenant fairness.
	// Fairness is the only reason a check is shed, so it equals Shed.
	FairnessSheds uint64
	// Retried is always zero: admission is never retried. It stays only
	// because the end-to-end benchmark reports it as guard.pool_retried.
	Retried uint64
}

// Snapshot returns the accumulated pool statistics.
func (p *CheckPool) Snapshot() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return PoolStats{Checks: p.checks, Shed: p.sheds, FairnessSheds: p.sheds}
}

// Merge adds o into s (fleet aggregation across shards).
func (s *PoolStats) Merge(o PoolStats) {
	s.Checks += o.Checks
	s.Shed += o.Shed
	s.FairnessSheds += o.FairnessSheds
	s.Retried += o.Retried
}

// Package fixture holds the allowed shapes: blocking work outside the
// critical section, static calls under locks, pointers into
// goroutines, and hooks consulted lock-free.
package fixture

import (
	"sync"
	"time"
)

type pool struct {
	mu    sync.Mutex
	ch    chan int
	stall func() time.Duration
	n     int
}

func (p *pool) bump() { p.n++ }

// sleepAfterUnlock releases before blocking — the FleetPool.Hold stall
// pattern.
func sleepAfterUnlock(p *pool) {
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
	time.Sleep(time.Millisecond)
}

// staticCallsUnderLock are fine: methods and functions are not hooks.
func staticCallsUnderLock(p *pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.bump()
}

// hookOutsideLock consults the callback lock-free, then accounts under
// the lock.
func hookOutsideLock(p *pool) {
	d := p.stall()
	_ = d
	p.mu.Lock()
	p.n++
	p.mu.Unlock()
}

// sendOutsideLock snapshots under the lock and sends after.
func sendOutsideLock(p *pool) {
	p.mu.Lock()
	v := p.n
	p.mu.Unlock()
	p.ch <- v
}

type guarded struct {
	mu sync.Mutex
	n  int
}

func workerPtr(g *guarded) {}

// pointerIntoGoroutine shares the lock instead of copying it.
func pointerIntoGoroutine(g *guarded) {
	go workerPtr(g)
}

// suppressed documents a deliberate exception.
func suppressed(p *pool) {
	p.mu.Lock()
	//fg:ignore lockorder fixture demonstrating a documented suppression
	time.Sleep(time.Microsecond)
	p.mu.Unlock()
}

// The asynchronous-pipeline shapes, done right: enqueue under the lock,
// wake and fire hooks only after releasing it — the capture-hook
// contract asyncOnRegionFull and the ToPA's OnRegionFull dispatch keep.

type asyncPipe struct {
	mu      sync.Mutex
	wake    chan *pool
	pending []int
	onFull  func(int)
}

// enqueueThenWake appends under the lock and wakes the pool after — the
// enqueue/asyncNotify split.
func enqueueThenWake(a *asyncPipe, g *pool) {
	a.mu.Lock()
	a.pending = append(a.pending, 1)
	a.mu.Unlock()
	select {
	case a.wake <- g:
	default:
	}
}

// snapshotThenFire copies what the hook needs under the lock and
// invokes it released — the OnRegionFull dispatch shape.
func snapshotThenFire(a *asyncPipe, region int) {
	a.mu.Lock()
	n := len(a.pending)
	a.mu.Unlock()
	a.onFull(region + n)
}

// backpressureSleepOutsideLock polls the queue depth lock-free between
// bounded sleeps — the producer-stall shape.
func backpressureSleepOutsideLock(a *asyncPipe, depth func() int) {
	for depth() > 8 {
		time.Sleep(time.Microsecond)
	}
	a.mu.Lock()
	a.pending = a.pending[:0]
	a.mu.Unlock()
}

// Package fixture injects each violation of the in-function lock rules.
package fixture

import (
	"sync"
	"time"
)

type pool struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	ch    chan int
	stall func() time.Duration
}

func sleepUnderLock(p *pool) {
	p.mu.Lock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding p.mu"
	p.mu.Unlock()
}

func sleepUnderDeferredLock(p *pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	time.Sleep(time.Millisecond) // want "time.Sleep while holding p.mu"
}

func sendUnderLock(p *pool) {
	p.mu.Lock()
	p.ch <- 1 // want "channel send while holding p.mu"
	p.mu.Unlock()
}

func recvUnderLock(p *pool) int {
	p.rw.RLock()
	v := <-p.ch // want "channel receive while holding p.rw"
	p.rw.RUnlock()
	return v
}

func callbackUnderLock(p *pool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stall() // want "callback invoked while holding p.mu"
}

type guarded struct {
	mu    sync.Mutex
	count int
}

func worker(g guarded) {}

func copiesLockIntoGoroutine(g *guarded) {
	go worker(*g) // want "copying a lock-containing"
}

// The asynchronous-pipeline shapes: a capture path that wakes the
// worker pool while still inside its own accounting lock, and a
// region-full notification hook fired under the buffer mutex.

type asyncPipe struct {
	mu      sync.Mutex
	wake    chan *pool
	pending []int
	onFull  func(int)
}

func wakesPoolUnderLock(a *asyncPipe, g *pool) {
	a.mu.Lock()
	a.pending = append(a.pending, 1)
	a.wake <- g // want "channel send while holding a.mu"
	a.mu.Unlock()
}

func firesHookUnderLock(a *asyncPipe, region int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.onFull(region) // want "callback invoked while holding a.mu"
}

func backpressureSleepUnderLock(a *asyncPipe) {
	a.mu.Lock()
	for len(a.pending) > 8 {
		time.Sleep(time.Microsecond) // want "time.Sleep while holding a.mu"
	}
	a.mu.Unlock()
}

// Package fixture holds the allowed shapes: one consistent global
// acquisition order (even through helper calls), striped same-class
// locks, goroutines that take locks on their own stack, and blocking
// work done after release.
package fixture

import (
	"sync"
	"time"
)

type G struct {
	mu sync.Mutex
	n  int
}

type Q struct {
	mu      sync.Mutex
	pending []int
}

type world struct {
	g       G
	q       Q
	stripes [4]struct {
		mu sync.Mutex
		n  int
	}
}

// drainOne takes g.mu then q.mu — the one sanctioned order.
func (w *world) drainOne() {
	w.g.mu.Lock()
	w.q.mu.Lock()
	w.q.pending = w.q.pending[:0]
	w.q.mu.Unlock()
	w.g.mu.Unlock()
}

// drainViaHelper reaches q.mu through a call, in the same order.
func (w *world) drainViaHelper() {
	w.g.mu.Lock()
	w.trim()
	w.g.mu.Unlock()
}

func (w *world) trim() {
	w.q.mu.Lock()
	w.q.pending = w.q.pending[:0]
	w.q.mu.Unlock()
}

// sweepStripes takes several locks of the same class in sequence — a
// self-edge, which is ordering within a class, not a cycle.
func (w *world) sweepStripes() {
	for i := range w.stripes {
		w.stripes[i].mu.Lock()
		w.stripes[i].n++
		w.stripes[i].mu.Unlock()
	}
}

// spawnTaker holds g.mu while spawning, but the child takes q.mu on
// its own stack: no held-chain from g.mu.
func (w *world) spawnTaker() {
	w.g.mu.Lock()
	go w.trim()
	w.g.mu.Unlock()
}

// reversedOnOwnStack takes q.mu then, after releasing, g.mu: no
// overlap, no edge.
func (w *world) reversedOnOwnStack() {
	w.q.mu.Lock()
	w.q.pending = append(w.q.pending, 1)
	w.q.mu.Unlock()
	w.g.mu.Lock()
	w.g.n++
	w.g.mu.Unlock()
}

// sleepAfterRelease blocks only once nothing is held — the backoff
// pattern.
func (w *world) sleepAfterRelease() {
	w.g.mu.Lock()
	w.g.n++
	w.g.mu.Unlock()
	w.pause()
}

func (w *world) pause() {
	time.Sleep(time.Microsecond)
}

// shedNonBlocking wakes a worker under the lock through a
// select-with-default: it cannot block, so holding g.mu across the
// call is fine (the send is outside the lock region of notify itself).
func (w *world) shedNonBlocking(wake chan struct{}) {
	w.g.mu.Lock()
	w.notify(wake)
	w.g.mu.Unlock()
}

func (w *world) notify(wake chan struct{}) {
	select {
	case wake <- struct{}{}:
	default:
	}
}

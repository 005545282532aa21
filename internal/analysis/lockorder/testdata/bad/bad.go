// Package fixture seeds the shapes lockorder must reject: opposite
// acquisition orders of the same two lock classes (one side direct,
// the other through a helper call — the interprocedural case), and a
// call to a transitively blocking function while a lock is held.
package fixture

import "sync"

type A struct {
	mu sync.Mutex
	n  int
}

type B struct {
	mu sync.Mutex
	n  int
}

type sys struct {
	a A
	b B
}

// lockBoth takes a.mu then b.mu — one direction of the cycle.
func (s *sys) lockBoth() {
	s.a.mu.Lock()
	s.b.mu.Lock() // want "lock-order cycle"
	s.b.n++
	s.b.mu.Unlock()
	s.a.mu.Unlock()
}

// reversed takes b.mu, then reaches a.mu through a helper: the edge
// only exists interprocedurally.
func (s *sys) reversed() {
	s.b.mu.Lock()
	s.takeA() // want "lock-order cycle"
	s.b.mu.Unlock()
}

func (s *sys) takeA() {
	s.a.mu.Lock()
	s.a.n++
	s.a.mu.Unlock()
}

// stallUnderLock calls a function that blocks on a channel while
// holding a.mu — invisible to the in-function rules.
func (s *sys) stallUnderLock(ch chan int) {
	s.a.mu.Lock()
	s.drain(ch) // want "call to s.drain while holding s.a.mu"
	s.a.mu.Unlock()
}

func (s *sys) drain(ch chan int) {
	<-ch
}

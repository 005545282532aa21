// Package lbr models the Last Branch Record facility from Table 1 of the
// paper: a fixed-depth register stack (16 or 32 entries) of the most
// recent branch source/target pairs, rotated for free by the hardware.
//
// LBR supports CoFI-type filtering (e.g. recording only calls/returns/
// indirect jumps, as kBouncer/ROPecker/PathArmor configure it) and costs
// essentially nothing to the traced program (<1%), but its tiny depth is
// exactly the "LBR pollution" weakness the paper contrasts FlowGuard
// against: any 16/32 legal branches flush the attack history.
package lbr

import (
	"flowguard/internal/isa"
	"flowguard/internal/trace"
)

// Depths of real LBR implementations.
const (
	Depth16 = 16
	Depth32 = 32
)

// CyclesPerBranch is the calibrated cost of the register rotation
// (effectively free; the <1% in Table 1).
const CyclesPerBranch = 0.02

// Filter selects which CoFI classes are recorded.
type Filter struct {
	Direct   bool
	Cond     bool
	Indirect bool
	Ret      bool
	Far      bool
}

// FilterAll records every class.
var FilterAll = Filter{Direct: true, Cond: true, Indirect: true, Ret: true, Far: true}

// FilterCFI is the configuration CFI monitors use: indirect branches and
// returns only (conditional and direct branches are noise to them).
var FilterCFI = Filter{Indirect: true, Ret: true}

func (f Filter) match(c isa.CoFIClass) bool {
	switch c {
	case isa.CoFIDirect:
		return f.Direct
	case isa.CoFICond:
		return f.Cond
	case isa.CoFIIndirect:
		return f.Indirect
	case isa.CoFIRet:
		return f.Ret
	case isa.CoFIFarTransfer:
		return f.Far
	default:
		return false
	}
}

// Entry is one from/to register pair.
type Entry struct {
	From uint64
	To   uint64
}

// Tracer implements trace.Sink with a fixed-depth ring of branch pairs.
type Tracer struct {
	Filter   Filter
	ring     []Entry
	next     int
	full     bool
	Branches uint64
}

// New returns an LBR stack of the given depth with the given filter.
func New(depth int, f Filter) *Tracer {
	if depth <= 0 {
		depth = Depth32
	}
	return &Tracer{Filter: f, ring: make([]Entry, depth)}
}

// Branch implements trace.Sink.
func (t *Tracer) Branch(b trace.Branch) {
	if !t.Filter.match(b.Class) {
		return
	}
	if b.Class == isa.CoFICond && !b.Taken {
		return // LBR records taken branches only
	}
	t.Branches++
	t.ring[t.next] = Entry{From: b.Source, To: b.Target}
	t.next = (t.next + 1) % len(t.ring)
	if t.next == 0 {
		t.full = true
	}
}

// Snapshot returns the recorded pairs oldest-first; at most depth entries
// survive, which is the mechanism's fundamental limit.
func (t *Tracer) Snapshot() []Entry {
	if !t.full {
		out := make([]Entry, t.next)
		copy(out, t.ring[:t.next])
		return out
	}
	out := make([]Entry, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}

// Depth returns the stack depth.
func (t *Tracer) Depth() int { return len(t.ring) }

// Cycles implements the calibrated cost model.
func (t *Tracer) Cycles() uint64 { return uint64(float64(t.Branches) * CyclesPerBranch) }

var _ trace.Sink = (*Tracer)(nil)

// Package trace defines the hardware-neutral branch-event types shared by
// the three tracing mechanisms the paper compares (BTS, LBR, IPT) and the
// CPU emulator that feeds them.
//
// The CPU reports every retired change-of-flow instruction (CoFI) as a
// Branch event; each tracing mechanism consumes the stream with its own
// filtering, storage format and cost model (paper §2, Table 1).
package trace

import "flowguard/internal/isa"

// Branch is one retired change-of-flow event.
type Branch struct {
	// Class is the CoFI classification (direct, conditional, indirect,
	// return, far transfer).
	Class isa.CoFIClass
	// Source is the address of the branch instruction.
	Source uint64
	// Target is the address control flow transferred to. For a
	// not-taken conditional branch this is the fall-through address; for
	// a far transfer it is the user-space resume address.
	Target uint64
	// Taken reports the direction of a conditional branch; true for all
	// other classes.
	Taken bool
}

// Sink consumes retired branch events. Implementations must be cheap:
// they run inline with instruction emulation, playing the role of the
// trace hardware.
type Sink interface {
	Branch(b Branch)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Branch)

// Branch implements Sink.
func (f SinkFunc) Branch(b Branch) { f(b) }

// MultiSink fans one branch stream out to several sinks (e.g. IPT plus a
// coverage recorder during fuzzing).
type MultiSink []Sink

// Branch implements Sink.
func (m MultiSink) Branch(b Branch) {
	for _, s := range m {
		s.Branch(b)
	}
}

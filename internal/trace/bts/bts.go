// Package bts models the Branch Trace Store mechanism from Table 1 of the
// paper: every control transfer — including statically known direct
// branches — is written as a full source/target record to a
// memory-resident buffer.
//
// BTS needs no decoding (records are self-describing), offers no
// filtering, and is expensive to the traced program: each record costs a
// microcode-assisted store plus the amortized buffer-management
// interrupt, which is what produces the ~50x geomean tracing slowdown on
// SPEC CPU2006 the paper reports. The per-record cost constant below is
// calibrated to that figure (EXPERIMENTS.md).
package bts

import (
	"flowguard/internal/trace"
)

// RecordSize is the size of one BTS record in bytes (source, target,
// flags — the layout of the real DS-area record).
const RecordSize = 24

// CyclesPerRecord is the calibrated cost of retiring one branch with BTS
// armed (store + serialization + amortized DS interrupt handling).
const CyclesPerRecord = 220

// Record is one branch record.
type Record struct {
	From  uint64
	To    uint64
	Flags uint64
}

// Tracer implements trace.Sink by storing a record for every CoFI.
type Tracer struct {
	// Buf is the memory-resident BTS buffer; when full the oldest
	// records are overwritten (circular, interrupt cost amortized into
	// CyclesPerRecord).
	Buf []Record
	// Cap bounds the buffer length (0 = unbounded, for analysis runs).
	Cap int

	Records uint64
	next    int
	wrapped bool
}

// New returns a tracer with the given buffer capacity (0 = unbounded).
func New(capacity int) *Tracer { return &Tracer{Cap: capacity} }

// Branch implements trace.Sink. BTS has no event filtering: every class,
// including direct branches, is recorded.
func (t *Tracer) Branch(b trace.Branch) {
	t.Records++
	var flags uint64
	if !b.Taken {
		flags = 1
	}
	r := Record{From: b.Source, To: b.Target, Flags: flags}
	if t.Cap == 0 {
		t.Buf = append(t.Buf, r)
		return
	}
	if len(t.Buf) < t.Cap {
		t.Buf = append(t.Buf, r)
		return
	}
	t.Buf[t.next] = r
	t.next = (t.next + 1) % t.Cap
	t.wrapped = true
}

// Snapshot returns the buffered records oldest-first.
func (t *Tracer) Snapshot() []Record {
	if !t.wrapped {
		out := make([]Record, len(t.Buf))
		copy(out, t.Buf)
		return out
	}
	out := make([]Record, 0, len(t.Buf))
	out = append(out, t.Buf[t.next:]...)
	out = append(out, t.Buf[:t.next]...)
	return out
}

// Cycles implements the calibrated cost model.
func (t *Tracer) Cycles() uint64 { return t.Records * CyclesPerRecord }

var _ trace.Sink = (*Tracer)(nil)

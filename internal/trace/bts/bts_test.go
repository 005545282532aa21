package bts_test

import (
	"testing"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
	"flowguard/internal/trace/bts"
)

func branch(src, dst uint64, class isa.CoFIClass, taken bool) trace.Branch {
	return trace.Branch{Class: class, Source: src, Target: dst, Taken: taken}
}

// TestRecordsEverything pins BTS's defining property (Table 1): no event
// filtering — even statically known direct branches are stored.
func TestRecordsEverything(t *testing.T) {
	tr := bts.New(0)
	classes := []isa.CoFIClass{
		isa.CoFIDirect, isa.CoFICond, isa.CoFIIndirect, isa.CoFIRet, isa.CoFIFarTransfer,
	}
	for i, c := range classes {
		tr.Branch(branch(uint64(i), uint64(100+i), c, true))
	}
	if tr.Records != uint64(len(classes)) {
		t.Fatalf("records = %d, want %d (BTS has no filtering)", tr.Records, len(classes))
	}
	snap := tr.Snapshot()
	for i := range classes {
		if snap[i].From != uint64(i) || snap[i].To != uint64(100+i) {
			t.Errorf("record %d = %+v", i, snap[i])
		}
	}
}

// TestCircularBuffer checks oldest-first ordering across a wrap.
func TestCircularBuffer(t *testing.T) {
	tr := bts.New(4)
	for i := 0; i < 10; i++ {
		tr.Branch(branch(uint64(i), uint64(i), isa.CoFIDirect, true))
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot length = %d, want 4", len(snap))
	}
	for i, r := range snap {
		if r.From != uint64(6+i) {
			t.Errorf("snapshot[%d].From = %d, want %d (oldest first)", i, r.From, 6+i)
		}
	}
}

// TestNotTakenFlag: the record flags encode branch direction.
func TestNotTakenFlag(t *testing.T) {
	tr := bts.New(0)
	tr.Branch(branch(1, 2, isa.CoFICond, false))
	tr.Branch(branch(3, 4, isa.CoFICond, true))
	snap := tr.Snapshot()
	if snap[0].Flags != 1 || snap[1].Flags != 0 {
		t.Errorf("flags = %d, %d; want 1 (not taken), 0 (taken)", snap[0].Flags, snap[1].Flags)
	}
}

// TestCostModel: BTS charges per record — the Table 1 "High (50X)" driver.
func TestCostModel(t *testing.T) {
	tr := bts.New(0)
	for i := 0; i < 100; i++ {
		tr.Branch(branch(1, 2, isa.CoFIDirect, true))
	}
	if got := tr.Cycles(); got != 100*bts.CyclesPerRecord {
		t.Errorf("cycles = %d, want %d", got, 100*bts.CyclesPerRecord)
	}
}

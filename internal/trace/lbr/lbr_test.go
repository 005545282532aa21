package lbr_test

import (
	"testing"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
	"flowguard/internal/trace/lbr"
)

func branch(src, dst uint64, class isa.CoFIClass, taken bool) trace.Branch {
	return trace.Branch{Class: class, Source: src, Target: dst, Taken: taken}
}

// TestCFIFilter pins the kBouncer/PathArmor configuration: only indirect
// branches and returns are recorded.
func TestCFIFilter(t *testing.T) {
	tr := lbr.New(lbr.Depth16, lbr.FilterCFI)
	tr.Branch(branch(1, 2, isa.CoFIDirect, true))
	tr.Branch(branch(3, 4, isa.CoFICond, true))
	tr.Branch(branch(5, 6, isa.CoFIIndirect, true))
	tr.Branch(branch(7, 8, isa.CoFIRet, true))
	tr.Branch(branch(9, 10, isa.CoFIFarTransfer, true))
	snap := tr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("recorded %d entries, want 2 (indirect + ret only)", len(snap))
	}
	if snap[0].From != 5 || snap[1].From != 7 {
		t.Errorf("snapshot = %+v", snap)
	}
}

// TestNotTakenConditionalsSkipped: LBR records taken branches only.
func TestNotTakenConditionalsSkipped(t *testing.T) {
	tr := lbr.New(lbr.Depth16, lbr.FilterAll)
	tr.Branch(branch(1, 2, isa.CoFICond, false))
	tr.Branch(branch(3, 4, isa.CoFICond, true))
	if got := len(tr.Snapshot()); got != 1 {
		t.Fatalf("recorded %d, want 1 (not-taken conditionals invisible)", got)
	}
}

// TestHistoryFlushing demonstrates the fundamental weakness the paper
// contrasts FlowGuard against (§7.1.1, [35]): any 16 legal branches
// evict the attack history from a 16-deep LBR, while FlowGuard's ToPA
// buffer retains kilobytes of packets.
func TestHistoryFlushing(t *testing.T) {
	tr := lbr.New(lbr.Depth16, lbr.FilterCFI)
	// The "attack": a wild indirect branch.
	tr.Branch(branch(0xbad, 0xdead, isa.CoFIIndirect, true))
	// Sixteen innocuous returns later...
	for i := 0; i < 16; i++ {
		tr.Branch(branch(uint64(0x1000+i), uint64(0x2000+i), isa.CoFIRet, true))
	}
	for _, e := range tr.Snapshot() {
		if e.From == 0xbad {
			t.Fatal("attack record survived 16 legal branches; LBR should have flushed it")
		}
	}
	if tr.Depth() != 16 {
		t.Errorf("depth = %d", tr.Depth())
	}
}

// TestRingOrder: snapshot is oldest-first after wrap.
func TestRingOrder(t *testing.T) {
	tr := lbr.New(4, lbr.FilterAll)
	for i := 0; i < 6; i++ {
		tr.Branch(branch(uint64(i), uint64(i), isa.CoFIRet, true))
	}
	snap := tr.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len = %d, want 4", len(snap))
	}
	for i, e := range snap {
		if e.From != uint64(2+i) {
			t.Errorf("snapshot[%d] = %+v, want From=%d", i, e, 2+i)
		}
	}
}

// TestCostIsNegligible: the Table 1 "<1%" property.
func TestCostIsNegligible(t *testing.T) {
	tr := lbr.New(lbr.Depth32, lbr.FilterAll)
	for i := 0; i < 1000; i++ {
		tr.Branch(branch(1, 2, isa.CoFIRet, true))
	}
	if got := tr.Cycles(); got != uint64(1000*lbr.CyclesPerBranch) {
		t.Errorf("cycles = %d", got)
	}
}

func TestDefaultDepth(t *testing.T) {
	if d := lbr.New(0, lbr.FilterAll).Depth(); d != lbr.Depth32 {
		t.Errorf("default depth = %d, want 32", d)
	}
}

package ipt

import (
	"fmt"
	"reflect"
	"testing"

	"flowguard/internal/isa"
	"flowguard/internal/module"
)

// counting is an EdgeChecker that records the edges it is asked about.
type counting struct {
	EdgeChecker
	asked map[uint64]int // by edge source
	calls int
}

func (c *counting) ContainsEdge(src, dst uint64, class isa.CoFIClass) bool {
	c.calls++
	if c.asked != nil {
		c.asked[src]++
	}
	return c.EdgeChecker.ContainsEdge(src, dst, class)
}

// TestChainMemoCapCutsChain walks a trace through a memo warmed on the
// whole trace with every instruction cap over its first few thousand
// instructions: each cap that falls inside a memoized chain must refuse
// the entry and step the chain to the cap, as a cold walk does.
func TestChainMemoCapCutsChain(t *testing.T) {
	fx := progenFixture(t, 1)
	chk := &counting{EdgeChecker: hashChecker{seed: 1, every: 16}}
	memo := NewChainMemo(chk)
	full, err := decodeChecked(fx.as, fx.buf, 0, memo)
	if err != nil {
		t.Fatal(err)
	}
	cold := chk.calls
	chk.calls = 0
	if _, err := decodeChecked(fx.as, fx.buf, 0, memo); err != nil {
		t.Fatal(err)
	}
	if chk.calls >= cold {
		t.Fatalf("warm walk asked the checker %d times, cold walk %d: the memo answered nothing", chk.calls, cold)
	}
	for maxInstrs := range min(full.Instrs, 3000) {
		checkWalkMatchesReference(t, fx.as, fx.buf, 1+maxInstrs, memo)
	}
}

// TestChainMemoSeesRewrite warms a memo, then retargets, through
// Mprotect, a taken JCC that lies inside a memoized chain — the warm walk
// never asks the checker about it — and makes the segment read-only
// again. The next walk through the warm memo must equal a fresh walk
// over the new code, which differs from the walk over the old code.
func TestChainMemoSeesRewrite(t *testing.T) {
	fx := progenFixture(t, 4)
	as := fx.as.Clone()
	chk := &counting{EdgeChecker: hashChecker{}}
	memo := NewChainMemo(chk)
	before, err := decodeChecked(as, fx.buf, 0, memo)
	if err != nil {
		t.Fatal(err)
	}
	chk.asked = map[uint64]int{}
	if _, err := decodeChecked(as, fx.buf, 0, memo); err != nil {
		t.Fatal(err)
	}
	ref, err := decodeFullReference(as, fx.buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := uint64(0)
	for _, e := range ref.Flow {
		if e.Class == isa.CoFICond && e.Taken && chk.asked[e.Source] == 0 && as.FindSegment(e.Source) == as.FindSegment(as.Exec.CodeBase) {
			src = e.Source
			break
		}
	}
	if src == 0 {
		t.Fatal("no taken JCC inside a memoized chain")
	}

	raw, err := as.FetchInstr(src)
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	in.Imm += isa.InstrSize
	perm := as.FindSegment(src).Perm
	if err := as.Mprotect(src, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(src, in.EncodeTo(nil)); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(src, perm); err != nil {
		t.Fatal(err)
	}

	got, gerr := decodeChecked(as, fx.buf, 0, memo)
	want, werr := decodeChecked(as, fx.buf, 0, NewChainMemo(hashChecker{}))
	if fmt.Sprint(gerr) != fmt.Sprint(werr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("JCC at %#x retargeted: warm memo walk %s (%v), fresh walk %s (%v)", src, summarize(got), gerr, summarize(want), werr)
	}
	if reflect.DeepEqual(got, before) {
		t.Fatalf("JCC at %#x retargeted: the walk did not change", src)
	}
	checkWalkMatchesReference(t, as, fx.buf, 0, memo)
}

// TestChainMemoBounded drops every code map of the address space a
// thousand times, walking the trace through one memo after each drop:
// the memo must end up holding rows for the live maps only, at most one
// per code segment.
func TestChainMemoBounded(t *testing.T) {
	fx := progenFixture(t, 4)
	as := fx.as.Clone()
	memo := NewChainMemo(hashChecker{})
	var code []*module.Segment
	for _, seg := range as.Segments() {
		if seg.IsCode {
			code = append(code, seg)
		}
	}
	want, err := decodeChecked(as, fx.buf, 0, NewChainMemo(hashChecker{}))
	if err != nil {
		t.Fatal(err)
	}
	for i := range 1000 {
		for _, seg := range code {
			if err := as.Mprotect(seg.Base, seg.Perm); err != nil {
				t.Fatal(err)
			}
		}
		got, err := decodeChecked(as, fx.buf, 0, memo)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("cycle %d: walk %s (%v), want %s", i, summarize(got), err, summarize(want))
		}
	}
	if len(memo.maps) == 0 || len(memo.maps) > len(code) {
		t.Fatalf("memo holds rows for %d maps over %d code segments", len(memo.maps), len(code))
	}
	for _, cm := range memo.maps {
		if live := as.CodeMapAt(cm.base); cm.m != live {
			t.Fatalf("memo holds rows for a dropped map at %#x", cm.base)
		}
	}
}

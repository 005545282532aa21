package ipt

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"flowguard/internal/isa"
	"flowguard/internal/module"
)

// resumeStats counts what the stages of resumed walks met.
type resumeStats struct {
	resumed  int // Resume continued a walk
	refused  int // Resume refused: an asynchronous FUP came next
	cutShort int // the walk ran dry but a lookahead had run into the end
	// suspended counts suspensions by the opcode held; syscallTaken those
	// at a SYSCALL whose FUP the walk had taken before the data ran out.
	suspended    map[isa.Op]int
	syscallTaken int
}

// walkStages walks buf the way a slow path meeting ever longer data
// does: over buf[:cuts[0]], then over each longer prefix buf[:cuts[i]]
// and finally over buf, each stage resuming the previous walk when it
// is suspended and Resume takes it, and walking the stage's data from
// its start otherwise. It collects what the last stage's walk yields,
// from the sync point on, as DecodeFull does.
func walkStages(as *module.AddressSpace, buf []byte, cuts []int, maxInstrs uint64, memo *ChainMemo, st *resumeStats) (*FullTrace, error) {
	var w FlowWalk
	var ft *FullTrace
	live := false
	for _, end := range append(slices.Clone(cuts), len(buf)) {
		data := buf[:end]
		if live && w.Suspended() {
			if w.Resume(data) {
				st.resumed++
			} else {
				st.refused++
				live = false
			}
		} else {
			live = false
		}
		if !live {
			var err error
			if w, err = NewFlowWalk(as, data, maxInstrs); err != nil {
				if end == len(buf) {
					return nil, err
				}
				continue
			}
			if memo != nil {
				w.CheckDirect(memo)
			}
			ft, live = &FullTrace{StartIP: w.StartIP()}, true
		}
		for w.Next() {
			ft.noteResyncs(w.Resyncs())
			ft.Flow = append(ft.Flow, w.Edge().Branch)
		}
		ft.noteResyncs(w.Resyncs())
		switch {
		case w.Suspended():
			st.suspended[w.held.Op]++
			if w.held.Op == isa.SYSCALL && !w.cur.end {
				st.syscallTaken++
			}
		case w.done && w.err == nil && w.cur.dry() && w.cur.cut:
			st.cutShort++
		}
	}
	ft.Instrs, ft.EndIP = w.Instrs(), w.EndIP()
	if errors.Is(w.Err(), ErrMalformedTrace) {
		return nil, w.Err()
	}
	return ft, w.Err()
}

// stageCuts picks up to n ascending cut points inside buf, whose
// packets are evs: packet boundaries (the data ends with whole packets)
// and arbitrary bytes (a packet cut mid-payload).
func stageCuts(rng *rand.Rand, buf []byte, evs []Event, n int) []int {
	var cuts []int
	for range n {
		if len(evs) > 0 && rng.Intn(3) > 0 {
			cuts = append(cuts, evs[rng.Intn(len(evs))].Off)
		} else if len(buf) > 0 {
			cuts = append(cuts, rng.Intn(len(buf)))
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// innerCuts returns the cut points that split the packet pairs resumed
// walks must handle: after a SYSCALL's FUP (before its TIP.PGD), after
// its TIP.PGD (before its TIP.PGE), after an asynchronous FUP (before
// its TIP), and right after an OVF.
func innerCuts(evs []Event) []int {
	var cuts []int
	for i := 0; i+1 < len(evs); i++ {
		e, next := evs[i], evs[i+1]
		switch {
		case e.Kind == KindFUP && !e.Ctx && (next.Kind == KindTIPPGD || next.Kind == KindTIP):
			cuts = append(cuts, next.Off)
		case e.Kind == KindTIPPGD && next.Kind == KindTIPPGE:
			cuts = append(cuts, next.Off)
		case e.Kind == KindOVF:
			cuts = append(cuts, next.Off)
		}
	}
	return cuts
}

// checkStagesMatchScratch fails unless the staged walk of buf over cuts
// reconstructs what one walk of buf does, with and without each memo's
// checker.
func checkStagesMatchScratch(t *testing.T, as *module.AddressSpace, buf []byte, cuts []int, maxInstrs uint64, ms []*ChainMemo, st *resumeStats) {
	t.Helper()
	check := func(memo *ChainMemo) {
		t.Helper()
		want, werr := decodeChecked(as, buf, maxInstrs, memo)
		if memo == nil {
			want, werr = DecodeFull(as, buf, maxInstrs)
		}
		got, gerr := walkStages(as, buf, cuts, maxInstrs, memo, st)
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("cuts %v of %d bytes, max %d: error %v, one walk %v", cuts, len(buf), maxInstrs, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cuts %v of %d bytes, max %d: staged walk differs from one walk\n got: %+v\nwant: %+v",
				cuts, len(buf), maxInstrs, summarize(got), summarize(want))
		}
	}
	check(nil)
	for _, m := range ms {
		check(m)
	}
}

// TestFlowWalkResumeMatchesScratch: a walk suspended where its data ran
// out and resumed over longer data, stage after stage, reconstructs
// exactly what one walk of the longest data does — flow, resync points,
// instruction count, end point and error — whether or not an edge
// checker decides the direct edges, and under instruction caps. The
// stages are cut at packet boundaries, mid-packet, between a SYSCALL's
// FUP, TIP.PGD and TIP.PGE, between an asynchronous FUP and its TIP and
// right after an OVF, over random programs and the signal and thread
// workloads, whole windows, bit-flipped ones and ones with an OVF
// spliced in.
func TestFlowWalkResumeMatchesScratch(t *testing.T) {
	seeds, windows := []int64{0, 1, 2, 3, 4, 5}, 12
	if testing.Short() {
		seeds, windows = []int64{1, 4}, 6
	}
	var fixtures []walkFixture
	for _, seed := range seeds {
		fixtures = append(fixtures, progenFixture(t, seed))
	}
	fixtures = append(fixtures,
		appFixture(t, "signald", []byte("aSbSSab S aSSSbaSab")),
		appFixture(t, "threadd", []byte{1, 'a', 'b', 'c', 'd'}),
	)
	st := resumeStats{suspended: map[isa.Op]int{}}
	for i, fx := range fixtures {
		rng := rand.New(rand.NewSource(int64(i) + 31))
		ms := memos(rng)
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range walkWindows(rng, fx.buf, windows) {
				evs, _ := DecodeFast(w)
				inner := innerCuts(evs)
				// Every inner cut alone, then random stagings.
				for _, c := range inner[:min(len(inner), 24)] {
					checkStagesMatchScratch(t, fx.as, w, []int{c}, 0, ms, &st)
				}
				for range 4 {
					cuts := stageCuts(rng, w, evs, 1+rng.Intn(8))
					checkStagesMatchScratch(t, fx.as, w, cuts, 0, ms, &st)
					if full, err := DecodeFull(fx.as, w, 0); err == nil && full.Instrs > 0 {
						checkStagesMatchScratch(t, fx.as, w, cuts, 1+uint64(rng.Int63n(int64(full.Instrs))), ms[:1], &st)
					}
				}
			}
		})
	}
	t.Logf("%+v", st)
	if st.resumed == 0 || st.refused == 0 || st.cutShort == 0 || st.syscallTaken == 0 {
		t.Fatalf("the stagings never resumed (%d), met an async FUP at a resume (%d), a lookahead cut short (%d) or a SYSCALL suspended past its FUP (%d)",
			st.resumed, st.refused, st.cutShort, st.syscallTaken)
	}
	for _, op := range []isa.Op{isa.JCC, isa.RET, isa.SYSCALL} {
		if st.suspended[op] == 0 {
			t.Fatalf("no walk suspended at a %v", op)
		}
	}
}

// TestFlowWalkRawFetchNotResumable: a walk that decoded an instruction
// outside a code map — here, every instruction, from a writable
// executable segment, whose bytes a store may change without an
// Mprotect — reconstructs the same flow but is never suspended, while
// the same walk over the read-only segment is.
func TestFlowWalkRawFetchNotResumable(t *testing.T) {
	fx := progenFixture(t, 1)
	rw := fx.as.Clone()
	code := fx.as.Exec.CodeBase
	if err := rw.Mprotect(code, module.PermR|module.PermW|module.PermX); err != nil {
		t.Fatal(err)
	}
	evs, err := DecodeFast(fx.buf)
	if err != nil {
		t.Fatal(err)
	}
	suspended := 0
	for _, e := range evs[1:] {
		if e.Kind != KindTIP {
			continue
		}
		var walks [2]FlowWalk
		for i, as := range []*module.AddressSpace{fx.as, rw} {
			if walks[i], err = NewFlowWalk(as, fx.buf[:e.Off], 0); err != nil {
				t.Fatal(err)
			}
			for walks[i].Next() {
			}
		}
		if walks[0].Instrs() != walks[1].Instrs() || walks[0].EndIP() != walks[1].EndIP() {
			t.Fatalf("cut at %d: the walks over the read-only and the writable segment differ", e.Off)
		}
		if walks[1].Suspended() {
			t.Fatalf("cut at %d: a walk that fetched from a writable segment is suspended", e.Off)
		}
		if walks[0].Suspended() {
			suspended++
		}
	}
	if suspended == 0 {
		t.Fatal("no walk over the read-only segment suspended")
	}
}

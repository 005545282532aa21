package ipt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/isa"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/progen"
)

// walkFixture is a traced run: the address space it ran in and the
// complete trace buffer it produced.
type walkFixture struct {
	name string
	as   *module.AddressSpace
	buf  []byte
}

// traceProcess runs p to completion under a tracer with a short PSB
// period (many sync points to cut windows at), rendering kernel-performed
// transfers as async FUP+TIP pairs.
func traceProcess(t testing.TB, k *kernelsim.Kernel, p *kernelsim.Process, name string) walkFixture {
	t.Helper()
	tr := NewTracer(NewToPA(16 << 20))
	tr.PSBPeriod = 64
	if err := tr.WriteMSR(MSRRTITCtl, CtlTraceEn|CtlBranchEn|CtlUser|CtlToPA); err != nil {
		t.Fatal(err)
	}
	p.CPU.Branch = tr
	k.OnAsyncFlow = func(_ *kernelsim.Process, from, to uint64) { tr.AsyncEvent(from, to) }
	if st, err := k.Run(p, 5_000_000); err != nil || !st.Exited {
		t.Fatalf("%s: run: %v %v", name, st, err)
	}
	tr.Flush()
	return walkFixture{name: name, as: p.AS, buf: tr.Out.Snapshot()}
}

// progenFixture traces one random program.
func progenFixture(t testing.TB, seed int64) walkFixture {
	t.Helper()
	cfg := progen.DefaultConfig(seed)
	if seed%2 == 1 {
		cfg.MaxLoop, cfg.CallFanout = 10, 4
	}
	prog, err := progen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("randprog", prog.Exec, prog.Libs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return traceProcess(t, k, p, fmt.Sprintf("progen-%d", seed))
}

// appFixture traces one run of a named app on the given stdin.
func appFixture(t testing.TB, name string, stdin []byte) walkFixture {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := app.Spawn(k, stdin)
	if err != nil {
		t.Fatal(err)
	}
	return traceProcess(t, k, p, name)
}

// psbOffsets returns the stream offsets of every PSB in buf.
func psbOffsets(buf []byte) []int {
	evs, err := DecodeFast(buf)
	if err != nil {
		return nil
	}
	var offs []int
	for _, e := range evs {
		if e.Kind == KindPSB {
			offs = append(offs, e.Off)
		}
	}
	return offs
}

// walkWindows derives the windows the walks are compared on from one
// trace: the whole trace, windows cut at random PSBs (and some cut short
// at a random end), bit-flipped windows, and windows with an OVF
// spliced in at a random packet boundary.
func walkWindows(rng *rand.Rand, buf []byte, n int) [][]byte {
	out := [][]byte{buf}
	psbs := psbOffsets(buf)
	if len(psbs) == 0 {
		return out
	}
	for range n {
		start := psbs[rng.Intn(len(psbs))]
		w := buf[start:]
		if rng.Intn(2) == 0 {
			w = w[:1+rng.Intn(len(w))]
		}
		out = append(out, w)

		flipped := append([]byte(nil), w...)
		for range 1 + rng.Intn(3) {
			flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		}
		out = append(out, flipped)

		if evs, err := DecodeFast(w); err == nil && len(evs) > 1 {
			at := evs[1+rng.Intn(len(evs)-1)].Off
			spliced := append(append(append([]byte(nil), w[:at]...), 0x02, extOVF), w[at:]...)
			out = append(out, spliced)
		}
	}
	return out
}

// checkWalkMatchesReference fails unless the block walk and the
// reference walk agree on the whole FullTrace and on the error text, and
// unless the walk checked with each memo's checker yields the reference
// flow less the JMP and JCC edges that checker accepts, with the same
// instruction count, end points, resyncs and error. Each checked walk
// runs three times: through a fresh memo for the checker, cold and then
// warm, and through the memo given, which other walks may have warmed.
func checkWalkMatchesReference(t *testing.T, as *module.AddressSpace, w []byte, maxInstrs uint64, memos ...*ChainMemo) {
	t.Helper()
	got, gerr := DecodeFull(as, w, maxInstrs)
	want, werr := decodeFullReference(as, w, maxInstrs)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("max %d, %d-byte window: error %v, reference %v", maxInstrs, len(w), gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("max %d, %d-byte window: trace differs from reference\n got: %+v\nwant: %+v",
			maxInstrs, len(w), summarize(got), summarize(want))
	}
	for _, shared := range memos {
		chk := shared.Checker()
		want := withoutAccepted(as, want, chk)
		fresh := NewChainMemo(chk)
		for run, memo := range []*ChainMemo{fresh, fresh, shared} {
			got, gerr := decodeChecked(as, w, maxInstrs, memo)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("checker %v, run %d, max %d, %d-byte window: error %v, reference %v", chk, run, maxInstrs, len(w), gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("checker %v, run %d, max %d, %d-byte window: checked walk differs from reference\n got: %+v\nwant: %+v",
					chk, run, maxInstrs, len(w), summarize(got), summarize(want))
			}
		}
	}
}

// decodeChecked is DecodeFull with the direct edges decided by memo's
// checker, through memo.
func decodeChecked(as *module.AddressSpace, buf []byte, maxInstrs uint64, memo *ChainMemo) (*FullTrace, error) {
	w, err := NewFlowWalk(as, buf, maxInstrs)
	if err != nil {
		return nil, err
	}
	w.CheckDirect(memo)
	return collect(&w)
}

// withoutAccepted returns ft less the JMP and JCC edges chk accepts,
// with each resync point moved to the same seam of the shorter flow.
func withoutAccepted(as *module.AddressSpace, ft *FullTrace, chk EdgeChecker) *FullTrace {
	if ft == nil {
		return nil
	}
	out := *ft
	out.Flow, out.ResyncPoints = nil, nil
	points := ft.ResyncPoints
	for i, e := range ft.Flow {
		for ; len(points) > 0 && points[0] == i; points = points[1:] {
			out.ResyncPoints = append(out.ResyncPoints, len(out.Flow))
		}
		if op := opAt(as, e.Source); (op == isa.JMP || op == isa.JCC) && chk.ContainsEdge(e.Source, e.Target, e.Class) {
			continue
		}
		out.Flow = append(out.Flow, e)
	}
	for range points {
		out.ResyncPoints = append(out.ResyncPoints, len(out.Flow))
	}
	return &out
}

// opAt decodes the opcode at pc; the reference walk decoded it there.
func opAt(as *module.AddressSpace, pc uint64) isa.Op {
	raw, err := as.FetchInstr(pc)
	if err != nil {
		panic(err)
	}
	in, err := isa.Decode(raw)
	if err != nil {
		panic(err)
	}
	return in.Op
}

// hashChecker is an EdgeChecker that rejects a pseudo-random subset of
// edges, about one in every (none when every is 0), picked by a hash of
// the edge and the seed: a pure function of the edge, so a walk and the
// reference agree on every answer.
type hashChecker struct{ seed, every uint64 }

func (c hashChecker) ContainsEdge(src, dst uint64, class isa.CoFIClass) bool {
	if c.every == 0 {
		return true
	}
	h := (src*0x9e3779b97f4a7c15 ^ dst*0xc2b2ae3d27d4eb4f ^ uint64(class)<<56) + c.seed
	h ^= h >> 31
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 29
	return h%c.every != 0
}

// memos returns fresh memos for the checkers a window is walked with:
// one that accepts every edge, one that rejects every edge, and the two
// of randomMemos.
func memos(rng *rand.Rand) []*ChainMemo {
	return append([]*ChainMemo{NewChainMemo(hashChecker{}), NewChainMemo(hashChecker{every: 1})}, randomMemos(rng)...)
}

// randomMemos returns fresh memos for two checkers that reject seeded
// random subsets of edges.
func randomMemos(rng *rand.Rand) []*ChainMemo {
	return []*ChainMemo{
		NewChainMemo(hashChecker{seed: rng.Uint64(), every: 2}),
		NewChainMemo(hashChecker{seed: rng.Uint64(), every: 16}),
	}
}

// metaSplitRuns counts the places in buf where a TNT run continues past
// a PSB: a TNT packet, synchronization-only packets including a PSB,
// then another TNT packet. The chain lane steps across these without
// leaving.
func metaSplitRuns(buf []byte) int {
	evs, err := DecodeFast(buf)
	if err != nil {
		return 0
	}
	n, afterTNT, psb := 0, false, false
	for _, e := range evs {
		switch e.Kind {
		case KindTNT:
			if afterTNT && psb {
				n++
			}
			afterTNT, psb = true, false
		case KindPSB:
			psb = true
		case KindPAD, KindPIP, KindPSBEND, KindMODE:
		case KindFUP:
			if !e.Ctx {
				afterTNT = false
			}
		default:
			afterTNT = false
		}
	}
	return n
}

func summarize(ft *FullTrace) string {
	if ft == nil {
		return "<nil>"
	}
	return fmt.Sprintf("instrs=%d start=%#x end=%#x flow=%d resyncs=%d points=%v",
		ft.Instrs, ft.StartIP, ft.EndIP, len(ft.Flow), ft.Resyncs, ft.ResyncPoints)
}

// TestFlowWalkMatchesReference is the differential property of the
// block-stepping walk: over random programs and the signal/thread
// workloads (async FUP+TIP pairs), whole, truncated, bit-flipped and
// OVF-spliced windows, and random instruction caps, it reconstructs
// exactly what the instruction-by-instruction walk does. Run with an
// edge checker (the chain lane), it yields the same flow less the
// accepted JMP and JCC edges, for checkers that accept all, none and
// random subsets of them, through cold memos, warm ones and memos warmed
// by the fixture's other windows.
func TestFlowWalkMatchesReference(t *testing.T) {
	seeds, cuts := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 40
	if testing.Short() {
		// Seed 5's trace has a TNT run continuing past a PSB (the
		// precondition below); seeds 0-3 have none.
		seeds, cuts = []int64{0, 1, 2, 3, 5}, 15
	}
	var fixtures []walkFixture
	for _, seed := range seeds {
		fixtures = append(fixtures, progenFixture(t, seed))
	}
	fixtures = append(fixtures,
		appFixture(t, "signald", []byte("aSbSSab S aSSSbaSab")),
		appFixture(t, "threadd", []byte{1, 'a', 'b', 'c', 'd'}),
	)
	asyncPairs, splitRuns := 0, 0
	for i, fx := range fixtures {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		if evs, err := DecodeFast(fx.buf); err == nil {
			for _, r := range ExtractTIPs(evs) {
				if r.Async {
					asyncPairs++
				}
			}
		}
		splitRuns += metaSplitRuns(fx.buf)
		// One memo per fixed checker serves all of the fixture's
		// windows; each call also walks with fresh random checkers.
		shared := memos(rng)
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range walkWindows(rng, fx.buf, cuts) {
				checkWalkMatchesReference(t, fx.as, w, 0, append(randomMemos(rng), shared...)...)
				full, err := decodeFullReference(fx.as, w, 0)
				if err != nil || full == nil || full.Instrs == 0 {
					continue
				}
				for range 3 {
					checkWalkMatchesReference(t, fx.as, w, 1+uint64(rng.Int63n(int64(full.Instrs))), append(randomMemos(rng), shared...)...)
				}
			}
		})
	}
	if asyncPairs == 0 {
		t.Fatal("no fixture produced an async FUP+TIP pair")
	}
	if splitRuns == 0 {
		t.Fatal("no fixture has a TNT run continuing past a PSB")
	}
}

// TestFlowWalkSharedMapRace runs the walk from four goroutines over one
// address space before any code map exists: every walk must reconstruct
// the same trace, and each segment's map must be built once — as many
// maps as one walk alone builds over an identical address space. Then
// four checked walks (the chain lane) run over the same address space
// while each drops the code maps mid-walk, through a same-permission
// Mprotect every 13th checker call: every walk must still yield what a
// checked walk over an untouched address space yields. (The walks' chain
// memos answer most repeats without asking the checker: one such walk
// makes about 90 checker calls over this fixture.)
func TestFlowWalkSharedMapRace(t *testing.T) {
	fx := progenFixture(t, 3)
	solo, shared := fx.as.Clone(), fx.as.Clone()
	// The fixture's CPU built maps while producing the trace and the
	// clones inherit them; a same-permission Mprotect of every code
	// segment starts both clones map-free.
	for _, as := range []*module.AddressSpace{solo, shared} {
		for _, seg := range as.Segments() {
			if seg.IsCode {
				if err := as.Mprotect(seg.Base, seg.Perm); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	want, err := DecodeFull(solo, fx.buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if solo.CodeMapsBuilt() == 0 {
		t.Fatal("the walk built no code map")
	}
	const walkers = 4
	got := make([]*FullTrace, walkers)
	errs := make([]error, walkers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = DecodeFull(shared, fx.buf, 0)
		}()
	}
	close(start)
	wg.Wait()
	for i := range walkers {
		if errs[i] != nil {
			t.Fatalf("walker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("walker %d: trace differs: %s vs %s", i, summarize(got[i]), summarize(want))
		}
	}
	if n, m := shared.CodeMapsBuilt(), solo.CodeMapsBuilt(); n != m {
		t.Fatalf("four concurrent walks built %d maps, one walk builds %d", n, m)
	}

	chk := hashChecker{seed: 3, every: 5}
	wantChecked, err := decodeChecked(solo, fx.buf, 0, NewChainMemo(chk))
	if err != nil {
		t.Fatal(err)
	}
	built := shared.CodeMapsBuilt()
	perms := map[uint64]module.Perm{}
	for _, seg := range shared.Segments() {
		perms[seg.Base] = seg.Perm
	}
	start = make(chan struct{})
	for i := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = decodeChecked(shared, fx.buf, 0, NewChainMemo(&dropper{EdgeChecker: chk, as: shared, perms: perms, every: 13}))
		}()
	}
	close(start)
	wg.Wait()
	for i := range walkers {
		if errs[i] != nil {
			t.Fatalf("checked walker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], wantChecked) {
			t.Fatalf("checked walker %d: trace differs: %s vs %s", i, summarize(got[i]), summarize(wantChecked))
		}
	}
	if shared.CodeMapsBuilt() == built {
		t.Fatal("no map was dropped and rebuilt during the checked walks")
	}
}

// dropper is an EdgeChecker that, at every every-th call, drops the code
// map of the edge source's segment with a same-permission Mprotect
// before answering. perms holds each segment's permissions by base,
// read before the walks start: Mprotect writes a segment's Perm.
type dropper struct {
	EdgeChecker
	as    *module.AddressSpace
	perms map[uint64]module.Perm
	every int
	calls int
}

func (d *dropper) ContainsEdge(src, dst uint64, class isa.CoFIClass) bool {
	if d.calls++; d.calls%d.every == 0 {
		if seg := d.as.FindSegment(src); seg != nil {
			if err := d.as.Mprotect(src, d.perms[seg.Base]); err != nil {
				panic(err)
			}
		}
	}
	return d.EdgeChecker.ContainsEdge(src, dst, class)
}

// TestFlowWalkLaneSeesMprotect pins the chain lane's side of the
// FetchCursor contract: it never steps a map Mprotect has dropped. A
// checker rewrites the target of the edge it is asked about to a HALT
// (making the segment writable, so no map can be rebuilt) and accepts
// the edge; the walk must stop at that HALT rather than step the stale
// map past it.
func TestFlowWalkLaneSeesMprotect(t *testing.T) {
	// A fixture whose walk asks the checker about 200 times even with
	// its chain memo answering repeats.
	fx := progenFixture(t, 4)
	full, err := DecodeFull(fx.as, fx.buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	count := &patcher{as: fx.as}
	if _, err := decodeChecked(fx.as, fx.buf, 0, NewChainMemo(count)); err != nil {
		t.Fatal(err)
	}
	if count.calls < 50 {
		t.Fatalf("the walk made only %d checker calls", count.calls)
	}
	for _, nth := range []int{1, 7, count.calls / 3, count.calls - 1} {
		as := fx.as.Clone()
		p := &patcher{as: as, nth: nth}
		ft, err := decodeChecked(as, fx.buf, 0, NewChainMemo(p))
		if err != nil {
			t.Fatalf("call %d: %v", nth, err)
		}
		if ft.EndIP != p.at || ft.Instrs >= full.Instrs {
			t.Fatalf("call %d: HALT written at %#x, walk ended at %#x after %d of %d instructions",
				nth, p.at, ft.EndIP, ft.Instrs, full.Instrs)
		}
	}
}

// patcher is an EdgeChecker that accepts every edge and counts its
// calls; at its nth call (never when nth is 0) it makes the segment of the edge's target writable and executable
// and overwrites the target instruction with a HALT.
type patcher struct {
	as    *module.AddressSpace
	nth   int
	calls int
	at    uint64 // the rewritten address
}

func (p *patcher) ContainsEdge(src, dst uint64, class isa.CoFIClass) bool {
	if p.calls++; p.calls == p.nth {
		if opAt(p.as, dst) == isa.HALT {
			panic("edge target is already a HALT")
		}
		if err := p.as.Mprotect(dst, module.PermR|module.PermW|module.PermX); err != nil {
			panic(err)
		}
		if err := p.as.WriteBytes(dst, (isa.Instr{Op: isa.HALT}).EncodeTo(nil)); err != nil {
			panic(err)
		}
		p.at = dst
	}
	return true
}

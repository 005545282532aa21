package ipt

import (
	"math/rand"
	"reflect"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/module"
)

func mustTNT(t *testing.F, bits uint8, n int) []byte {
	t.Helper()
	b, err := appendTNT(nil, bits, n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// FuzzDecodeFast drives the packet-grammar scanner with arbitrary bytes:
// it must never panic, and whatever events it accepts must carry sane
// field values. (Run with `go test -fuzz FuzzDecodeFast` for a real
// campaign; the seed corpus doubles as a regression suite.)
func FuzzDecodeFast(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x00})
	f.Add(appendPSB(nil))
	f.Add(mustTNT(f, 0b101, 3))
	f.Add(appendPIP(nil, 0x1234))
	var last uint64
	f.Add(appendIPPacket(nil, opTIP, 0x400000, &last))
	f.Add([]byte{0x02, 0xF3})                                      // OVF
	f.Add([]byte{0x02, 0x99})                                      // truncated MODE packet
	f.Add([]byte{0x02, 0x55})                                      // unknown extended opcode
	f.Add([]byte{0xFF})                                            // unknown TIP-family header
	f.Add(appendMODE(nil, 1))                                      // context-switch MODE marker
	f.Add(append(appendPIP(nil, 0x77<<12), appendMODE(nil, 1)...)) // switch marker pair

	// Fault-shaped seeds: the corruption classes the chaos harness
	// injects (internal/faults).
	{
		// OVF spliced into the middle of a TIP packet's IP payload.
		last = 0
		tip := appendIPPacket(nil, opTIP, 0xdeadbeefcafe, &last)
		mid := len(tip) / 2
		ovfMidTIP := append(append(append([]byte{}, tip[:mid]...), 0x02, extOVF), tip[mid:]...)
		f.Add(ovfMidTIP)
	}
	f.Add(appendPSB(nil)[:7]) // truncated PSB
	{
		// Wrap splice: the tail of a cut TIP payload, then a PSB and
		// clean packets — the byte pattern after a ToPA wrap.
		last = 0
		cut := appendIPPacket(nil, opTIP, 0x123456789abc, &last)
		splice := append(append([]byte{}, cut[3:]...), appendPSB(nil)...)
		splice = appendIPPacket(splice, opTIP, 0x400100, &last)
		f.Add(splice)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		evs, err := DecodeFast(data)
		if err != nil {
			return
		}
		for _, e := range evs {
			if e.Kind == KindTNT && (e.TNTCount < 1 || e.TNTCount > maxTNTBits) {
				t.Fatalf("TNT count %d out of range", e.TNTCount)
			}
			if e.Off < 0 || e.Off >= len(data) {
				t.Fatalf("event offset %d outside %d-byte stream", e.Off, len(data))
			}
		}
	})
}

// FuzzWindowDecoder cross-checks the incremental decoder against the
// batch path over arbitrary PSB-prefixed bytes: chunked feeding must
// never panic, and when both paths accept the stream they must agree on
// every TIP record (including the OVF-resync Resync flags).
func FuzzWindowDecoder(f *testing.F) {
	f.Add([]byte{}, 3)
	f.Add(mustTNT(f, 0b11, 2), 1)
	{
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x400000, &last)
		s = append(s, 0x02, extOVF)
		s = appendPSB(s)
		s = appendIPPacket(s, opTIP, 0x400100, &last)
		f.Add(s, 2)
	}
	{
		// IP-byte compression rollover: a full-width IP establishes
		// last-IP, then 2-byte-compressed TIPs move the low 16 bits
		// downward (the reconstruction must keep the upper bits rather
		// than borrow), with chunk sizes that split the 3-byte packets
		// mid-payload — the seam shape AppendSince hands the decoder
		// when a packet straddles a ToPA region boundary.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x4afffe, &last)
		s = appendIPPacket(s, opTIP, 0x4a0002, &last) // ipb=1, low bytes wrap down
		s = appendIPPacket(s, opTIP, 0x4aff00, &last) // ipb=1, back up
		f.Add(s, 2)
		f.Add(s, 5)
	}
	{
		// Context-switch marker at a region seam: the bare PIP+MODE pair
		// the multicore kernel module writes between slices, with chunk
		// sizes that cut the marker after the escape prefix, mid-CR3
		// payload, and between the PIP and its MODE — plus a marker cut
		// short by end-of-stream (a slice-boundary truncation fault).
		s := appendPSB(nil)
		var last uint64
		s = appendIPPacket(s, opTIP, 0x400000, &last)
		s = appendPIP(s, 0x77<<12)
		s = appendMODE(s, 1)
		s = appendIPPacket(s, opTIP, 0x400100, &last)
		f.Add(s, 1)
		f.Add(s, 3)
		f.Add(s, 7)
		f.Add(append(appendPSB(nil), appendPIP(nil, 0x55<<12)[:6]...), 2)
	}
	{
		// 4-byte compression split mid-payload: the target changes bits
		// 16..31 as the low 16 roll over.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x4afffe, &last)
		s = appendIPPacket(s, opTIP, 0x4b0001, &last) // ipb=2
		s = appendIPPacket(s, opTIP, 0x4afffc, &last) // ipb=2 back down
		f.Add(s, 3)
	}
	{
		// Every extended-opcode escape back to back: the DFA's pcExt
		// entry covers only the 0x02 prefix, so the second-byte dispatch
		// and its length handling (PSBEND 2, PIP 10, OVF 2) must survive
		// chunk seams that split each escape after its prefix byte.
		s := []byte{0x02, extPSBEND}
		s = appendPIP(s, 0xdead0000beef)
		s = append(s, 0x02, extOVF)
		s = appendPSB(s)
		f.Add(s, 1)
		f.Add(s, 3)
	}
	{
		// A TNT run that passes TNTRunCap only across several feeds, with
		// chunk sizes of 7 and 9 so the uint64 probe window never aligns
		// with the feed seams: the run's head is folded while it is still
		// under the cap, and the incremental scan must reach the same
		// signature and count the batch scan does across every split.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x400000, &last)
		for i := 0; i < 24; i++ {
			s = append(s, 0b1<<3|0b101<<1) // 3-outcome TNT bytes, 72 total
		}
		s = appendIPPacket(s, opTIP, 0x400040, &last)
		f.Add(s, 7)
		f.Add(s, 9)
	}
	{
		// Short run that crosses exactly one probe boundary (9 one-outcome
		// bytes): stays under TNTRunCap, so the folded signature — not the
		// wildcard — must match across the word-batched path.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x400000, &last)
		for i := 0; i < 9; i++ {
			s = append(s, 0x06) // one taken outcome each
		}
		s = appendIPPacket(s, opTIP, 0x400040, &last)
		f.Add(s, 4)
		f.Add(s, 8)
	}
	{
		// IP-compression rollover at a ToPA region seam while a TNT word
		// run is in flight: PAD fill (zero words) precedes the region
		// boundary, then compressed TIPs continue against the carried
		// last-IP.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x4afffe, &last)
		for i := 0; i < 8; i++ {
			s = append(s, 0xfe) // 6-outcome TNT bytes: one full probe word
		}
		s = append(s, make([]byte, 16)...) // PAD to the region edge
		s = appendIPPacket(s, opTIP, 0x4b0002, &last)
		f.Add(s, 5)
		f.Add(s, 16)
	}
	{
		// Long runs (past TNTRunCap) of mixed-width TNT bytes whose
		// length is no multiple of 8, so every run ends mid-word in the
		// prefix probe's long-run lane, right before each packet that
		// can end a run: a TIP, a PSB, an OVF and PAD. The last run sits
		// inside an OVF→PSB skip, whose discarded outcomes go through
		// the same prefix step. Chunk sizes 1..9 put the feed seams at
		// every position of the probe word and of the truncation carry.
		run := func(s []byte, n int) []byte {
			widths := []byte{0x06, 0xfe, 0x0a, 0x72, 0x34}
			for i := 0; i < n; i++ {
				s = append(s, widths[i%len(widths)])
			}
			return s
		}
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x400000, &last)
		s = run(s, 21)
		s = appendIPPacket(s, opTIP, 0x400040, &last)
		s = run(s, 13)
		s = appendPSB(s)
		last = 0
		s = appendIPPacket(s, opTIP, 0x400080, &last)
		s = run(s, 19)
		s = append(s, 0, 0, 0) // PAD
		s = run(s, 11)
		s = appendIPPacket(s, opTIP, 0x4000c0, &last)
		s = run(s, 29)
		s = append(s, 0x02, extOVF)
		s = run(s, 27)
		s = appendPSB(s)
		last = 0
		s = appendIPPacket(s, opTIP, 0x400100, &last)
		for chunk := 1; chunk <= 9; chunk++ {
			f.Add(s, chunk)
		}
	}
	{
		// Runs of exactly TNTRunCap outcomes and one more, each long
		// enough (in bytes) to be counted by the prefix probe before it
		// is folded: the first must keep its folded signature, the
		// second must collapse to the wildcard.
		var last uint64
		s := appendIPPacket(nil, opTIP, 0x400000, &last)
		for _, n := range []int{TNTRunCap, TNTRunCap + 1} {
			for i := 0; i < n; i++ {
				s = append(s, 0x04|byte(i&1)<<1) // one outcome each
			}
			s = appendIPPacket(s, opTIP, 0x400040+uint64(n), &last)
		}
		for i := 0; i < TNTRunCap/2; i++ {
			s = append(s, 0x0a|byte(i&1)<<2) // two outcomes each
		}
		s = appendIPPacket(s, opTIP, 0x400080, &last)
		f.Add(s, 64)
		f.Add(s, 5)
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		if chunk > len(body)+1 {
			chunk = len(body) + 1
		}
		buf := append(appendPSB(nil), body...)
		d := NewWindowDecoder(0)
		feedErr := error(nil)
		for off := 0; off < len(buf) && feedErr == nil; off += chunk {
			end := off + chunk
			if end > len(buf) {
				end = len(buf)
			}
			feedErr = d.Feed(buf[off:end])
		}
		evs, batchErr := DecodeFast(buf)
		if feedErr != nil || batchErr != nil {
			return // either path may reject corrupt bytes; neither may panic
		}
		if d.Consumed() < len(buf) {
			return // trailing partial packet still in the carry
		}
		want := ExtractTIPs(evs)
		got := d.Tips()
		if len(got) == 0 && len(want) == 0 {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("incremental decode diverges from batch: %d vs %d records", len(got), len(want))
		}
	})
}

// FuzzTNTAnnotations drives TNT-annotation extraction with generated
// TNT/TIP scripts: the TNT signature and length attached to every TIP
// record must equal an independently folded ground truth, in both the
// batch and the incremental decoder.
func FuzzTNTAnnotations(f *testing.F) {
	f.Add([]byte{}, 3)
	f.Add([]byte{0b101<<3 | 1, 0x00, 0b11<<3 | 2}, 1)
	f.Add([]byte{0x00, 0x00, 0x00}, 2)
	{
		// A run past TNTRunCap followed by a TIP: the wildcard case.
		long := make([]byte, 8)
		for i := range long {
			long[i] = 0b10101<<3 | 5
		}
		f.Add(append(long, 0x00), 4)
	}

	f.Fuzz(func(t *testing.T, script []byte, chunk int) {
		if chunk <= 0 {
			chunk = 1
		}
		buf := appendPSB(nil)
		var last uint64
		ip := uint64(0x400000)
		var run []bool
		type truth struct {
			sig uint64
			n   int
		}
		var want []truth
		flush := func() {
			sig, n := TNTSigEmpty, len(run)
			if n > TNTRunCap {
				sig = TNTSigLongRun
			} else {
				for _, taken := range run {
					sig = TNTSigAppend(sig, taken)
				}
			}
			want = append(want, truth{sig, n})
			run = run[:0]
		}
		for _, b := range script {
			if b&0x07 == 0 {
				ip += 0x40 + uint64(b>>3)
				buf = appendIPPacket(buf, opTIP, ip, &last)
				flush()
				continue
			}
			n := 1 + int(b&0x07)%maxTNTBits
			bits := b >> 3
			var err error
			if buf, err = appendTNT(buf, bits, n); err != nil {
				t.Fatalf("appendTNT(%#x, %d): %v", bits, n, err)
			}
			for i := 0; i < n; i++ {
				run = append(run, bits>>i&1 == 1)
			}
		}

		evs, err := DecodeFast(buf)
		if err != nil {
			t.Fatalf("generated stream rejected: %v", err)
		}
		recs := ExtractTIPs(evs)
		if len(recs) != len(want) {
			t.Fatalf("%d TIP records, want %d", len(recs), len(want))
		}
		for i, r := range recs {
			if r.TNTSig != want[i].sig || int(r.TNTLen) != want[i].n {
				t.Fatalf("record %d: sig %#x len %d, want %#x len %d",
					i, r.TNTSig, r.TNTLen, want[i].sig, want[i].n)
			}
		}

		// The incremental decoder must annotate identically under any
		// chunking.
		d := NewWindowDecoder(0)
		for off := 0; off < len(buf); off += chunk {
			end := off + chunk
			if end > len(buf) {
				end = len(buf)
			}
			if err := d.Feed(buf[off:end]); err != nil {
				t.Fatalf("incremental feed rejected generated stream: %v", err)
			}
		}
		if got := d.Tips(); !reflect.DeepEqual(got, recs) {
			t.Fatalf("incremental TNT annotations diverge from batch (%d vs %d records)", len(got), len(recs))
		}
	})
}

// TestIPCompressionRolloverAcrossRegions is the regression test for the
// fuzz-corpus gap where a 2-byte-compressed TIP payload straddles a ToPA
// region boundary while the low 16 bits of the IP roll downward: the
// incremental decoder fed AppendSince slices across the seam must
// reconstruct the same absolute IPs as a batch decode of the stitched
// snapshot.
func TestIPCompressionRolloverAcrossRegions(t *testing.T) {
	const region = 32
	topa := NewToPA(region, region)

	var raw []byte
	raw = appendPSB(raw) // 16 bytes
	var last uint64
	raw = appendIPPacket(raw, opTIP, 0x7ffffa, &last) // ipb=2, 5 bytes -> 21
	raw = append(raw, make([]byte, 7)...)             // PAD to 28
	raw = appendIPPacket(raw, opTIP, 0x7ffffe, &last) // ipb=1, 3 bytes -> 31
	// Header at 31, payload at 32/33: the payload bytes land in the
	// second region while the low 16 bits wrap downward.
	raw = appendIPPacket(raw, opTIP, 0x7f0004, &last)
	raw = appendIPPacket(raw, opTIP, 0x7fff02, &last) // and back up
	if len(raw) <= region || len(raw) > 2*region {
		t.Fatalf("stream is %d bytes; want one region < len <= two regions", len(raw))
	}
	if hdr := raw[31] &^ (3 << 5); hdr != opTIP {
		t.Fatalf("byte 31 is %#x, want a TIP header straddling the region seam", raw[31])
	}

	// Feed the decoder exactly as the guard does: AppendSince deltas
	// after every burst of writes, with a burst boundary mid-payload.
	d := NewWindowDecoder(0)
	var consumed uint64
	var carry []byte
	prev := 0
	for _, cut := range []int{19, 33, len(raw)} {
		topa.Write(raw[prev:cut])
		prev = cut
		nb, ok := topa.AppendSince(carry[:0], consumed)
		if !ok {
			t.Fatalf("AppendSince failed at cut %d", cut)
		}
		consumed += uint64(len(nb))
		if err := d.Feed(nb); err != nil {
			t.Fatalf("incremental feed at cut %d: %v", cut, err)
		}
	}

	evs, err := DecodeFast(topa.Snapshot())
	if err != nil {
		t.Fatalf("batch decode: %v", err)
	}
	batch := ExtractTIPs(evs)
	want := []uint64{0x7ffffa, 0x7ffffe, 0x7f0004, 0x7fff02}
	if len(batch) != len(want) {
		t.Fatalf("batch extracted %d records, want %d", len(batch), len(want))
	}
	for i, r := range batch {
		if r.IP != want[i] {
			t.Fatalf("batch record %d IP %#x, want %#x (compression rollover mis-merged)", i, r.IP, want[i])
		}
	}
	if got := d.Tips(); !reflect.DeepEqual(got, batch) {
		t.Fatalf("incremental decode across the region seam diverges from batch:\n got  %+v\n want %+v", got, batch)
	}
}

// psbWindow is a synthetic window: a PSB whose context FUP puts the walk
// at start, then the given packet bytes.
func psbWindow(start uint64, rest []byte) []byte {
	s := appendPSB(nil)
	var last uint64
	s = appendIPPacket(s, opFUP, start, &last)
	s = append(s, 0x02, extPSBEND)
	return append(s, rest...)
}

// asyncPair encodes a kernel-performed transfer from -> to (FUP+TIP).
func asyncPair(from, to uint64) []byte {
	var last uint64
	s := appendIPPacket(nil, opFUP, from, &last)
	return appendIPPacket(s, opTIP, to, &last)
}

// straightRun finds a straight-line run of at least n instructions in
// the executable's code map and returns its first address.
func straightRun(tb testing.TB, fx walkFixture, n uint32) uint64 {
	tb.Helper()
	base := fx.as.Exec.CodeBase
	m := fx.as.CodeMapAt(base)
	for pc := base; m.Slot(pc) != nil; pc += 8 {
		if m.Slot(pc).Run >= n {
			return pc
		}
	}
	tb.Fatalf("%s: no straight-line run of %d instructions", fx.name, n)
	return 0
}

// TestFlowWalkAsyncInsideRun pins the one case the recorded fixtures
// never reach: an asynchronous transfer interrupting a straight-line
// run mid-block, with every instruction cap around it.
func TestFlowWalkAsyncInsideRun(t *testing.T) {
	fx := progenFixture(t, 1)
	pc := straightRun(t, fx, 4)
	ms := []*ChainMemo{NewChainMemo(hashChecker{}), NewChainMemo(hashChecker{every: 1})}
	for _, w := range [][]byte{
		psbWindow(pc, asyncPair(pc+16, pc)),
		psbWindow(pc, asyncPair(pc+24, pc+8)),
		psbWindow(pc, append(asyncPair(pc+8, pc+16), asyncPair(pc+24, pc)...)),
		psbWindow(pc, asyncPair(pc+12, pc)), // misaligned FUP: never taken
	} {
		for maxInstrs := range uint64(8) {
			checkWalkMatchesReference(t, fx.as, w, maxInstrs, ms...)
		}
	}
}

// TestFlowWalkRunToMapEnd pins the lane's other way out of a map: a
// straight-line run that reaches the end of its segment, in a module
// whose code ends without a stop. The walk must leave the map there and
// fail the fetch past it exactly as the reference does, for every cap.
func TestFlowWalkRunToMapEnd(t *testing.T) {
	b := asm.NewModule("tail")
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.Jmp("run")
	main.Label("run")
	main.Nop().Nop().Nop()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	pc, _ := as.Exec.SymbolAddr("main")
	tnt, err := appendTNT(nil, 0b101, 3)
	if err != nil {
		t.Fatal(err)
	}
	ms := []*ChainMemo{NewChainMemo(hashChecker{}), NewChainMemo(hashChecker{every: 1})}
	for _, start := range []uint64{pc, pc + 8, pc + 16} {
		for maxInstrs := range uint64(6) {
			checkWalkMatchesReference(t, as, psbWindow(start, tnt), maxInstrs, ms...)
		}
	}
}

// FuzzDecodeFullMatchesReference drives the block-stepping walk and the
// instruction-by-instruction reference over arbitrary windows of one
// traced program: they must agree on the whole FullTrace and the error
// text. The walk run with an edge checker picked by reject — one that
// accepts every edge, one that rejects every edge, or one rejecting a
// seeded random subset — must yield the reference flow less the JMP and
// JCC edges the checker accepts, through a fresh memo and through one
// that earlier inputs warmed. The cap keeps a walk over a corrupted
// window that never consumes a packet finite.
func FuzzDecodeFullMatchesReference(f *testing.F) {
	fx := progenFixture(f, 4)
	rng := rand.New(rand.NewSource(4))
	for i, w := range walkWindows(rng, fx.buf, 6) {
		f.Add(w, uint16(i*97), uint8(i))
	}
	pc := straightRun(f, fx, 4)
	f.Add(psbWindow(pc, asyncPair(pc+16, pc)), uint16(6), uint8(2))
	f.Add(psbWindow(pc+4, nil), uint16(50), uint8(0))              // misaligned start
	f.Add(psbWindow(module.StackTop-64, nil), uint16(3), uint8(1)) // non-executable start
	// One memo per checker lives across inputs, so a walk meets chains
	// other inputs recorded.
	var shared [256]*ChainMemo
	f.Fuzz(func(t *testing.T, data []byte, maxInstrs uint16, reject uint8) {
		if shared[reject] == nil {
			shared[reject] = NewChainMemo(hashChecker{seed: uint64(reject), every: uint64(reject % 5)})
		}
		checkWalkMatchesReference(t, fx.as, data, 1+uint64(maxInstrs), shared[reject])
	})
}

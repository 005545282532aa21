package ipt_test

import (
	"errors"
	"reflect"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cpu"
	"flowguard/internal/isa"
	"flowguard/internal/module"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// ctlDefault is the kernel module's IA32_RTIT_CTL programming from §5.1.
const ctlDefault = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// traceProgram assembles and runs a single-module program under an IPT
// tracer, returning the CPU, the tracer, and the ground-truth branches.
func traceProgram(t *testing.T, topa *ipt.ToPA, build func(b *asm.Builder)) (*cpu.CPU, *ipt.Tracer, []trace.Branch) {
	t.Helper()
	b := asm.NewModule("app")
	build(b)
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	tr := ipt.NewTracer(topa)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlDefault); err != nil {
		t.Fatal(err)
	}
	var truth []trace.Branch
	c.Branch = trace.MultiSink{tr, trace.SinkFunc(func(br trace.Branch) { truth = append(truth, br) })}
	if _, err := c.Run(2_000_000); !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("Run: %v (pc=%#x)", err, c.PC)
	}
	tr.Flush()
	return c, tr, truth
}

// table2Program reproduces the control-flow shape of Table 2 in the
// paper: a taken conditional, an indirect jump, a direct call, a
// not-taken conditional, a direct jump, and a return.
func table2Program(b *asm.Builder) {
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.Movi(isa.R0, 1)
	main.Cmpi(isa.R0, 1)
	main.Jcc(isa.EQ, "indir") // No.1: jg taken -> TNT(1)
	main.Halt()
	main.Label("indir")
	main.AddrOf(isa.R6, "hop")
	main.JmpR(isa.R6) // No.2: jmpq *%rax -> TIP(hop)
	hop := b.Func("hop", 0, false)
	hop.Call("fun1") // No.3: direct call -> no output
	hop.Halt()       // return lands here... (see ret target below)
	fun1 := b.Func("fun1", 0, false)
	fun1.Cmpi(isa.R0, 2)     // No.6: cmp
	fun1.Jcc(isa.EQ, "skip") // No.7: je not taken -> TNT(0)
	fun1.Jmp("tail")         // No.8: direct jmp -> no output
	fun1.Label("skip")
	fun1.Nop()
	fun1.Label("tail")
	fun1.Ret() // No.9: retq -> TIP(return address)
}

// TestTable2PacketSequence pins the exact packet kinds of the paper's
// worked example: TNT(taken), TIP, TNT(not-taken), TIP.
func TestTable2PacketSequence(t *testing.T) {
	c, tr, _ := traceProgram(t, nil, table2Program)
	evs, err := ipt.DecodeFast(tr.Out.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Strip sync/meta packets; keep TNT and TIP only.
	var seq []string
	var tips []uint64
	var bits []bool
	for _, e := range evs {
		switch e.Kind {
		case ipt.KindTNT:
			for k := 0; k < e.TNTCount; k++ {
				seq = append(seq, "TNT")
				bits = append(bits, e.TNTBits&(1<<k) != 0)
			}
		case ipt.KindTIP:
			seq = append(seq, "TIP")
			tips = append(tips, e.IP)
		}
	}
	want := []string{"TNT", "TIP", "TNT", "TIP"}
	if !reflect.DeepEqual(seq, want) {
		t.Fatalf("packet sequence = %v, want %v", seq, want)
	}
	if !bits[0] || bits[1] {
		t.Errorf("TNT bits = %v, want [taken, not-taken]", bits)
	}
	hop, _ := c.AS.Exec.SymbolAddr("hop")
	if tips[0] != hop {
		t.Errorf("first TIP = %#x, want hop at %#x", tips[0], hop)
	}
	// The return TIP targets the instruction after hop's CALL.
	if tips[1] != hop+isa.InstrSize {
		t.Errorf("second TIP = %#x, want %#x", tips[1], hop+isa.InstrSize)
	}
}

// TestDirectBranchesProduceNoPackets pins the core compression property:
// a program with only direct control flow emits no TIP/TNT at all.
func TestDirectBranchesProduceNoPackets(t *testing.T) {
	_, tr, truth := traceProgram(t, nil, func(b *asm.Builder) {
		main := b.Func("main", 0, true)
		b.SetEntry("main")
		main.Jmp("a")
		main.Label("a")
		main.Call("leaf") // direct call
		main.Halt()
		b.Func("leaf", 0, false).Nop().Ret()
	})
	if len(truth) == 0 {
		t.Fatal("test program retired no branches")
	}
	evs, err := ipt.DecodeFast(tr.Out.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range evs {
		if e.Kind == ipt.KindTNT {
			t.Errorf("unexpected TNT packet for direct-only flow")
		}
		// The leaf RET is the only TIP.
		if e.Kind == ipt.KindTIP {
			continue
		}
	}
}

func countKinds(evs []ipt.Event) map[ipt.Kind]int {
	m := make(map[ipt.Kind]int)
	for _, e := range evs {
		m[e.Kind]++
	}
	return m
}

// TestFullDecodeReconstructsGroundTruth is the central fidelity check:
// the instruction-flow-layer decoder must reproduce the CPU's exact
// branch stream from packets + binaries alone.
func TestFullDecodeReconstructsGroundTruth(t *testing.T) {
	c, tr, truth := traceProgram(t, nil, func(b *asm.Builder) {
		b.FuncTable("ops", []string{"op_add", "op_mul", "op_xor"}, false)
		main := b.Func("main", 0, true)
		b.SetEntry("main")
		main.Movi(isa.R5, 0) // loop counter
		main.Movi(isa.R0, 7) // accumulator
		main.Label("loop")
		main.AddrOf(isa.R6, "ops")
		main.Mov(isa.R8, isa.R5)
		main.Movi(isa.R9, 3)
		main.Mod(isa.R8, isa.R9)
		main.Movi(isa.R9, 8)
		main.Mul(isa.R8, isa.R9)
		main.Add(isa.R6, isa.R8)
		main.Ld(isa.R6, isa.R6, 0)
		main.Movi(isa.R1, 3)
		main.CallR(isa.R6)
		main.Addi(isa.R5, 1)
		main.Cmpi(isa.R5, 20)
		main.Jcc(isa.LT, "loop")
		main.Call("fini")
		main.Halt()
		b.Func("op_add", 2, false).Add(isa.R0, isa.R1).Ret()
		b.Func("op_mul", 2, false).Mul(isa.R0, isa.R1).Ret()
		b.Func("op_xor", 2, false).Xor(isa.R0, isa.R1).Ret()
		b.Func("fini", 0, false).Nop().Ret()
	})
	ft, err := ipt.DecodeFull(c.AS, tr.Out.Snapshot(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Flow) != len(truth) {
		t.Fatalf("reconstructed %d branches, ground truth %d", len(ft.Flow), len(truth))
	}
	for i := range truth {
		if ft.Flow[i] != truth[i] {
			t.Fatalf("branch %d: reconstructed %+v, truth %+v", i, ft.Flow[i], truth[i])
		}
	}
	if ft.Instrs == 0 || ft.Cycles() != ft.Instrs*ipt.CyclesPerDecodedInstr {
		t.Errorf("cost model: instrs=%d cycles=%d", ft.Instrs, ft.Cycles())
	}
}

// TestIPCompression checks that consecutive nearby TIP targets use short
// encodings while far jumps use full ones.
func TestIPCompression(t *testing.T) {
	_, tr, _ := traceProgram(t, nil, func(b *asm.Builder) {
		main := b.Func("main", 0, true)
		b.SetEntry("main")
		main.Movi(isa.R5, 0)
		main.Label("loop")
		main.AddrOf(isa.R6, "near") // same 64 KiB page as main
		main.CallR(isa.R6)
		main.Addi(isa.R5, 1)
		main.Cmpi(isa.R5, 4)
		main.Jcc(isa.LT, "loop")
		main.Halt()
		b.Func("near", 0, false).Ret()
	})
	raw := tr.Out.Snapshot()
	evs, err := ipt.DecodeFast(raw)
	if err != nil {
		t.Fatal(err)
	}
	// All TIPs within the executable share high bits: after the first,
	// every TIP packet must be 3 bytes or fewer (header + 2-byte IP).
	var sizes []int
	for i, e := range evs {
		if e.Kind != ipt.KindTIP {
			continue
		}
		end := len(raw)
		if i+1 < len(evs) {
			end = evs[i+1].Off
		}
		sizes = append(sizes, end-e.Off)
	}
	if len(sizes) < 4 {
		t.Fatalf("want several TIPs, got %d", len(sizes))
	}
	for _, s := range sizes[1:] {
		if s > 3 {
			t.Errorf("TIP packet size %d, want <= 3 after warm-up (IP compression)", s)
		}
	}
}

// TestToPAWrapAndResync fills a tiny ToPA so it wraps, then verifies the
// fast decoder can sync at a PSB and decode the tail.
func TestToPAWrapAndResync(t *testing.T) {
	topa := ipt.NewToPA(2048, 2048)
	fills := 0
	topa.OnRegionFull = func(ev ipt.RegionFull) {
		if ev.Wrapped {
			fills++
		}
	}
	c, tr, truth := traceProgram(t, topa, func(b *asm.Builder) {
		main := b.Func("main", 0, true)
		b.SetEntry("main")
		main.Movi(isa.R5, 0)
		main.Label("loop")
		main.Call("leaf")
		main.Addi(isa.R5, 1)
		main.Cmpi(isa.R5, 8000)
		main.Jcc(isa.LT, "loop")
		main.Halt()
		b.Func("leaf", 0, false).Nop().Ret()
	})
	if fills == 0 {
		t.Fatal("ToPA never filled; test needs a longer program or smaller buffer")
	}
	if tr.Out.TotalWritten() <= uint64(topa.Capacity()) {
		t.Fatal("trace volume did not exceed capacity")
	}
	raw := topa.Snapshot()
	start := ipt.Sync(raw, 0)
	if start < 0 {
		t.Fatal("no PSB in wrapped snapshot")
	}
	evs, err := ipt.DecodeFast(raw[start:])
	if err != nil {
		t.Fatal(err)
	}
	kinds := countKinds(evs)
	if kinds[ipt.KindTIP] == 0 || kinds[ipt.KindTNT] == 0 {
		t.Fatalf("decoded kinds = %v, want TIPs and TNTs", kinds)
	}
	// Full decode of the surviving window also works, reconstructing a
	// suffix of the ground truth.
	ft, err := ipt.DecodeFull(c.AS, raw[start:], 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Flow) == 0 || len(ft.Flow) >= len(truth) {
		t.Fatalf("window flow = %d branches, truth %d; want proper suffix", len(ft.Flow), len(truth))
	}
	tail := truth[len(truth)-len(ft.Flow):]
	for i := range tail {
		if ft.Flow[i] != tail[i] {
			t.Fatalf("window branch %d = %+v, want %+v", i, ft.Flow[i], tail[i])
		}
	}
}

// TestCR3Filtering verifies that traces are only generated while the
// current CR3 matches IA32_RTIT_CR3_MATCH.
func TestCR3Filtering(t *testing.T) {
	tr := ipt.NewTracer(nil)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlDefault|ipt.CtlCR3Filter); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteMSR(ipt.MSRRTITCR3Match, 0x5000); err != nil {
		t.Fatal(err)
	}
	br := trace.Branch{Class: isa.CoFIRet, Source: 0x400100, Target: 0x400200, Taken: true}

	tr.SetCR3(0x6000) // other process
	tr.Branch(br)
	if tr.TIPCount != 0 {
		t.Fatal("traced a non-matching CR3")
	}
	tr.SetCR3(0x5000) // protected process
	tr.Branch(br)
	if tr.TIPCount != 1 {
		t.Fatal("did not trace the matching CR3")
	}
	// Disabling TraceEn stops everything.
	if err := tr.WriteMSR(ipt.MSRRTITCtl, 0); err != nil {
		t.Fatal(err)
	}
	tr.Branch(br)
	if tr.TIPCount != 1 {
		t.Fatal("traced with TraceEn clear")
	}
	if v, err := tr.ReadMSR(ipt.MSRRTITCR3Match); err != nil || v != 0x5000 {
		t.Fatalf("ReadMSR = %#x, %v", v, err)
	}
	if _, err := tr.ReadMSR(0x9999); err == nil {
		t.Fatal("ReadMSR accepted unknown register")
	}
	if err := tr.WriteMSR(0x9999, 0); err == nil {
		t.Fatal("WriteMSR accepted unknown register")
	}
}

// TestExtractTIPs checks TNT-run attribution to the following TIP.
func TestExtractTIPs(t *testing.T) {
	_, tr, truth := traceProgram(t, nil, table2Program)
	evs, err := ipt.DecodeFast(tr.Out.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	recs := ipt.ExtractTIPs(evs)
	if len(recs) != 2 {
		t.Fatalf("TIP records = %d, want 2", len(recs))
	}
	if recs[0].TNTLen != 1 || recs[1].TNTLen != 1 {
		t.Errorf("TNT lengths = %d,%d, want 1,1", recs[0].TNTLen, recs[1].TNTLen)
	}
	wantSig0 := ipt.TNTSigAppend(ipt.TNTSigEmpty, true)
	wantSig1 := ipt.TNTSigAppend(ipt.TNTSigEmpty, false)
	if recs[0].TNTSig != wantSig0 || recs[1].TNTSig != wantSig1 {
		t.Errorf("TNT signatures mismatch")
	}
	if wantSig0 == wantSig1 {
		t.Error("taken and not-taken runs must have distinct signatures")
	}
	// Ground truth cross-check: the two TIP targets are the two
	// indirect/return targets.
	var indirects []uint64
	for _, b := range truth {
		if b.Class == isa.CoFIIndirect || b.Class == isa.CoFIRet {
			indirects = append(indirects, b.Target)
		}
	}
	if len(indirects) != 2 || recs[0].IP != indirects[0] || recs[1].IP != indirects[1] {
		t.Errorf("TIP IPs = %#x, truth %#x", []uint64{recs[0].IP, recs[1].IP}, indirects)
	}
}

// TestTracingCostModel sanity-checks the calibrated meters: IPT writes
// far fewer than 1 byte per retired instruction on branchy code.
func TestTracingCostModel(t *testing.T) {
	c, tr, _ := traceProgram(t, ipt.NewToPA(1<<20), func(b *asm.Builder) {
		main := b.Func("main", 0, true)
		b.SetEntry("main")
		main.Movi(isa.R5, 0)
		main.Label("loop")
		main.Call("leaf")
		main.Addi(isa.R5, 1)
		main.Cmpi(isa.R5, 1000)
		main.Jcc(isa.LT, "loop")
		main.Halt()
		b.Func("leaf", 0, false).Nop().Nop().Nop().Ret()
	})
	bytesPerInstr := float64(tr.Out.TotalWritten()) / float64(c.Instrs)
	if bytesPerInstr > 1.0 {
		t.Errorf("trace bytes per instruction = %.2f, want < 1 (paper: <1 bit/instr avg)", bytesPerInstr)
	}
	if tr.Cycles() == 0 {
		t.Error("tracer cycle meter is zero")
	}
}

// TestFullDecodeResyncAfterOverflow: an OVF packet mid-stream desyncs
// the instruction-flow walk, which must recover at the next PSB and
// reconstruct the rest of the trace.
func TestFullDecodeResyncAfterOverflow(t *testing.T) {
	c, tr, truth := traceProgram(t, nil, table2Program)
	buf := tr.Out.Snapshot()

	// Cut the stream right after the first TNT packet (the walk will
	// next need a TIP), inject OVF, then append a fresh PSB-led copy of
	// the same trace.
	evs, err := ipt.DecodeFast(buf)
	if err != nil {
		t.Fatal(err)
	}
	cut := -1
	for _, e := range evs {
		if e.Kind == ipt.KindTNT {
			cut = e.Off + 1 // short TNT is one byte
			break
		}
	}
	if cut < 0 {
		t.Fatal("no TNT packet in trace")
	}
	spliced := append([]byte{}, buf[:cut]...)
	spliced = append(spliced, 0x02, 0xF3) // OVF
	spliced = append(spliced, buf...)     // fresh PSB restarts decode state

	ft, err := ipt.DecodeFull(c.AS, spliced, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Resyncs != 1 {
		t.Fatalf("resyncs = %d, want 1", ft.Resyncs)
	}
	// After the resync the full ground-truth flow is reconstructed as
	// the tail of the spliced decode.
	if len(ft.Flow) < len(truth) {
		t.Fatalf("flow = %d branches, want at least the %d of the replay", len(ft.Flow), len(truth))
	}
	tail := ft.Flow[len(ft.Flow)-len(truth):]
	for i := range truth {
		if tail[i] != truth[i] {
			t.Fatalf("replayed branch %d = %+v, want %+v", i, tail[i], truth[i])
		}
	}
}

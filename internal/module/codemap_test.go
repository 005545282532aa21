package module_test

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

// codeMapProgram loads "main: call through the fnptr slot; call f;
// halt" with f = three NOPs and a RET. The fnptr slot starts out at f.
func codeMapProgram(t *testing.T) (as *module.AddressSpace, f, fnptr uint64) {
	t.Helper()
	b := asm.NewModule("app")
	b.FuncTable("fnptr", []string{"f"}, false)
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.AddrOf(isa.R6, "fnptr")
	main.Ld(isa.R6, isa.R6, 0)
	main.CallR(isa.R6)
	main.Call("f")
	main.Halt()
	fn := b.Func("f", 0, false)
	fn.Nop().Nop().Nop().Ret()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err = module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _ = as.Exec.SymbolAddr("f")
	fnptr, _ = as.Exec.SymbolAddr("fnptr")
	return as, f, fnptr
}

// traceRun executes the program from its entry under a tracer and
// returns the trace and the ground-truth branch stream.
func traceRun(t *testing.T, as *module.AddressSpace) ([]byte, []trace.Branch) {
	t.Helper()
	c := cpu.New(as)
	tr := ipt.NewTracer(ipt.NewToPA(1 << 16))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		t.Fatal(err)
	}
	var truth []trace.Branch
	c.Branch = trace.MultiSink{tr, trace.SinkFunc(func(br trace.Branch) { truth = append(truth, br) })}
	if _, err := c.Run(10_000); !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("run: %v (pc=%#x)", err, c.PC)
	}
	tr.Flush()
	return tr.Out.Snapshot(), truth
}

// checkWalk decodes buf over as and requires the ground-truth flow.
func checkWalk(t *testing.T, as *module.AddressSpace, buf []byte, truth []trace.Branch) {
	t.Helper()
	ft, err := ipt.DecodeFull(as, buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ft.Flow, truth) {
		t.Fatalf("walk reconstructed %v, executed %v", ft.Flow, truth)
	}
}

// jmpOverNop encodes "jmp +8" (skip the next instruction).
func jmpOverNop() []byte { return (isa.Instr{Op: isa.JMP, Imm: 8}).EncodeTo(nil) }

// rewrite makes the code segment writable, overwrites the first
// instruction of f, and makes it executable and read-only again.
func rewrite(t *testing.T, as *module.AddressSpace, f uint64) {
	t.Helper()
	if err := as.Mprotect(f, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	if as.CodeMapAt(f) != nil {
		t.Fatal("a writable code segment has a code map")
	}
	if err := as.WriteBytes(f, jmpOverNop()); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(f, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
}

// TestCodeMapRebuiltAfterMprotect: RX -> RW, new code written, -> RX;
// the walk then decodes the new bytes, through a rebuilt map.
func TestCodeMapRebuiltAfterMprotect(t *testing.T) {
	as, f, _ := codeMapProgram(t)
	buf, truth := traceRun(t, as)
	checkWalk(t, as, buf, truth)
	if n := as.CodeMapsBuilt(); n != 1 {
		t.Fatalf("first walk built %d maps, want 1", n)
	}

	rewrite(t, as, f)
	buf2, truth2 := traceRun(t, as)
	if reflect.DeepEqual(truth2, truth) {
		t.Fatal("rewritten code executed the old flow")
	}
	checkWalk(t, as, buf2, truth2)
	if n := as.CodeMapsBuilt(); n != 2 {
		t.Fatalf("walk after the rewrite: %d maps built, want 2", n)
	}
}

// TestCodeMapSkipsWritableCode: code in an anonymous RWX mapping is
// decoded instruction by instruction, so writes to it take effect
// without any Mprotect.
func TestCodeMapSkipsWritableCode(t *testing.T) {
	as, _, fnptr := codeMapProgram(t)
	rwx, err := as.Mmap(0x1000, module.PermR|module.PermW|module.PermX)
	if err != nil {
		t.Fatal(err)
	}
	var code []byte
	for _, op := range []isa.Op{isa.NOP, isa.NOP, isa.NOP, isa.RET} {
		code = (isa.Instr{Op: op}).EncodeTo(code)
	}
	if err := as.WriteBytes(rwx, code); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(fnptr, rwx); err != nil {
		t.Fatal(err)
	}
	buf, truth := traceRun(t, as)
	checkWalk(t, as, buf, truth)
	if as.CodeMapAt(rwx) != nil {
		t.Fatal("an RWX mapping has a code map")
	}

	if err := as.WriteBytes(rwx, jmpOverNop()); err != nil {
		t.Fatal(err)
	}
	buf2, truth2 := traceRun(t, as)
	if reflect.DeepEqual(truth2, truth) {
		t.Fatal("rewritten code executed the old flow")
	}
	checkWalk(t, as, buf2, truth2)
}

// TestCodeMapClone: a fork child shares the parent's maps (its bytes
// are a copy), and keeps decoding its own code after the parent
// rewrites the parent's.
func TestCodeMapClone(t *testing.T) {
	as, f, _ := codeMapProgram(t)
	buf, truth := traceRun(t, as)
	checkWalk(t, as, buf, truth)

	child := as.Clone()
	checkWalk(t, child, buf, truth)
	if n := child.CodeMapsBuilt(); n != 0 {
		t.Fatalf("child built %d maps, want 0 (shared with the parent)", n)
	}
	if child.CodeMapAt(f) != as.CodeMapAt(f) {
		t.Fatal("child does not share the parent's map")
	}

	rewrite(t, as, f)
	buf2, truth2 := traceRun(t, as)
	checkWalk(t, as, buf2, truth2)
	checkWalk(t, child, buf, truth)
	if child.CodeMapAt(f) == as.CodeMapAt(f) {
		t.Fatal("child shares the parent's rebuilt map")
	}
}

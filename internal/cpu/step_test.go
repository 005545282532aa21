package cpu_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/asm"
	"flowguard/internal/attack"
	"flowguard/internal/cpu"
	"flowguard/internal/isa"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/progen"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// side is one CPU of a lockstep pair: its step routine and the branches
// its current step emitted.
type side struct {
	c        *cpu.CPU
	step     func() error
	branches []seen
}

// seen is one emitted branch and the CPU's PC and counters as the sink
// observed them.
type seen struct {
	trace.Branch
	pc, instrs, cycles uint64
}

// newSide attaches a branch recorder to c; ref selects StepReference
// over Step.
func newSide(c *cpu.CPU, ref bool) *side {
	s := &side{c: c, step: c.Step}
	if ref {
		s.step = c.StepReference
	}
	c.Branch = trace.SinkFunc(func(b trace.Branch) {
		s.branches = append(s.branches, seen{b, c.PC, c.Instrs, c.CycleCount})
	})
	return s
}

// stepBoth retires one instruction on each side and fails the test at
// the first difference in the returned error, the architectural state,
// the counters or the emitted branches. It returns the common error.
func stepBoth(t testing.TB, what string, a, b *side) error {
	t.Helper()
	a.branches, b.branches = a.branches[:0], b.branches[:0]
	pc := a.c.PC
	ea, eb := a.step(), b.step()
	if !reflect.DeepEqual(ea, eb) {
		t.Fatalf("%s: step at %#x: error %v, reference %v", what, pc, ea, eb)
	}
	sameState(t, what, pc, a, b)
	return ea
}

// sameState fails the test unless the two sides agree on the
// architectural state, the counters and the branches emitted since
// their recorders were last cleared; pc names where the step began.
func sameState(t testing.TB, what string, pc uint64, a, b *side) {
	t.Helper()
	ca, cb := a.c, b.c
	if ca.Regs != cb.Regs || ca.PC != cb.PC || ca.FlagZ != cb.FlagZ || ca.FlagN != cb.FlagN ||
		ca.Instrs != cb.Instrs || ca.CycleCount != cb.CycleCount || ca.Halted() != cb.Halted() {
		t.Fatalf("%s: step at %#x: state diverged:\n got pc=%#x z=%v n=%v instrs=%d cycles=%d regs=%x\nwant pc=%#x z=%v n=%v instrs=%d cycles=%d regs=%x",
			what, pc, ca.PC, ca.FlagZ, ca.FlagN, ca.Instrs, ca.CycleCount, ca.Regs,
			cb.PC, cb.FlagZ, cb.FlagN, cb.Instrs, cb.CycleCount, cb.Regs)
	}
	if !reflect.DeepEqual(a.branches, b.branches) {
		t.Fatalf("%s: step at %#x: emitted %v, reference %v", what, pc, a.branches, b.branches)
	}
}

// sameMemory fails unless the two address spaces map the same segments
// with the same permissions and bytes.
func sameMemory(t testing.TB, what string, a, b *module.AddressSpace) {
	t.Helper()
	sa, sb := a.Segments(), b.Segments()
	if len(sa) != len(sb) {
		t.Fatalf("%s: %d segments, reference %d", what, len(sa), len(sb))
	}
	for i := range sa {
		if sa[i].Base != sb[i].Base || sa[i].Perm != sb[i].Perm || string(sa[i].Data) != string(sb[i].Data) {
			t.Fatalf("%s: segment %s differs from the reference", what, sa[i].Name)
		}
	}
}

// lockstepProcess spawns the same process in two fresh kernels and runs
// it — Step in one, StepReference in the other — comparing after every
// instruction. Threads the process clones join a round-robin rotation
// in the same order on both sides. It stops when the process stops or
// budget instructions have retired.
func lockstepProcess(t *testing.T, what string, spawn func(*kernelsim.Kernel) (*kernelsim.Process, error), budget int) {
	t.Helper()
	ka, kb := kernelsim.New(), kernelsim.New()
	pa, err := spawn(ka)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := spawn(kb)
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ a, b *side }
	tasks := []pair{{newSide(pa.CPU, false), newSide(pb.CPU, true)}}
	const quantum = 97
	steps := 0
	for len(tasks) > 0 && steps < budget {
		for i := 0; i < len(tasks) && steps < budget; i++ {
			tk := tasks[i]
			var err error
			for n := 0; n < quantum && err == nil && steps < budget; n++ {
				err = stepBoth(t, what, tk.a, tk.b)
				steps++
			}
			ca, cb := ka.TakeCloned(), kb.TakeCloned()
			if len(ca) != len(cb) {
				t.Fatalf("%s: cloned %d threads, reference %d", what, len(ca), len(cb))
			}
			for j := range ca {
				tasks = append(tasks, pair{newSide(ca[j].CPU, false), newSide(cb[j].CPU, true)})
			}
			if err == nil {
				continue
			}
			if i == 0 {
				// The main thread stopped: the process is over.
				tasks = nil
				break
			}
			tasks = append(tasks[:i], tasks[i+1:]...)
			i--
		}
	}
	sameMemory(t, what, pa.AS, pb.AS)
}

// TestStepMatchesReference runs Step in lockstep with the fetch-and-decode
// reference over random programs, every application (benign sessions),
// the signal and thread servers, and the vulnd exploits.
func TestStepMatchesReference(t *testing.T) {
	budget := 400_000
	seeds := 12
	if testing.Short() {
		budget, seeds = 60_000, 4
	}
	for _, fx := range processFixtures(t, seeds) {
		lockstepProcess(t, fx.name, fx.spawn, budget)
	}
}

// fixture is a process the differential tests spawn on both sides.
type fixture struct {
	name  string
	spawn func(*kernelsim.Kernel) (*kernelsim.Process, error)
}

// processFixtures returns seeds random programs, every application
// (benign sessions), the signal and thread servers, and the vulnd
// exploits.
func processFixtures(t *testing.T, seeds int) []fixture {
	t.Helper()
	var out []fixture
	for seed := int64(1); seed <= int64(seeds); seed++ {
		cfg := progen.DefaultConfig(seed)
		if seed%2 == 1 {
			cfg.MaxLoop, cfg.CallFanout = 10, 4
		}
		prog, err := progen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{fmt.Sprintf("progen-%d", seed), func(k *kernelsim.Kernel) (*kernelsim.Process, error) {
			return k.Spawn("randprog", prog.Exec, prog.Libs, nil, nil)
		}})
	}

	all := append(apps.All(), apps.Vulnd(), apps.Signald(), apps.Threadd())
	for _, a := range all {
		in := a.MakeInput(2, 7)
		if a.Name == "signald" {
			in = append([]byte("aSbS"), in...)
		}
		out = append(out, fixture{a.Name, func(k *kernelsim.Kernel) (*kernelsim.Process, error) {
			return a.Spawn(k, in)
		}})
	}

	vulnd := apps.Vulnd()
	vas, err := vulnd.Load()
	if err != nil {
		t.Fatal(err)
	}
	exploits := []struct {
		name  string
		build func(*module.AddressSpace) ([]byte, error)
	}{
		{"rop", attack.BuildROPWrite},
		{"srop", attack.BuildSROP},
		{"ret2lib", attack.BuildRet2Lib},
		{"history-flush", func(as *module.AddressSpace) ([]byte, error) {
			return attack.BuildHistoryFlush(as, 48)
		}},
	}
	for _, x := range exploits {
		payload, err := x.build(vas)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fixture{"vulnd-" + x.name, func(k *kernelsim.Kernel) (*kernelsim.Process, error) {
			return vulnd.Spawn(k, payload)
		}})
	}
	return out
}

// mprotectSyscalls services every SYSCALL as mprotect(R0, R1&7),
// ignoring an unmapped R0, so random code changes permissions.
type mprotectSyscalls struct{}

func (mprotectSyscalls) Syscall(c *cpu.CPU) error {
	_ = c.AS.Mprotect(c.Regs[isa.R0], module.Perm(c.Regs[isa.R1]&7))
	return nil
}

// fuzzSpace loads code and data as one module and arranges it per mode:
// bit 0 makes the data section executable (its length need not be a
// multiple of the instruction size, so it can end in a partial slot),
// bit 1 makes the code writable, bit 2 maps an RWX page holding a copy
// of the code, and bits 3–4 pick the entry (code, data, the RWX page or
// a misaligned code address). R1–R3 start at the three bases. The stack
// is one page: random code can make it executable, and every mprotect
// of it then drops a map the next fetch rebuilds.
func fuzzSpace(code, data []byte, mode byte) (*module.AddressSpace, [4]uint64, bool) {
	code = code[:len(code)/isa.InstrSize*isa.InstrSize]
	if len(code) == 0 || len(code) > 1<<12 || len(data) > 1<<12 {
		return nil, [4]uint64{}, false
	}
	as, err := module.Load(&module.Module{Name: "fz", Code: code, Data: data}, nil, nil, module.WithStackSize(1<<12))
	if err != nil {
		return nil, [4]uint64{}, false
	}
	bases := [4]uint64{as.Exec.CodeBase, as.Exec.DataBase, 0, as.Exec.CodeBase + 3}
	if mode&1 != 0 && len(data) > 0 {
		_ = as.Mprotect(as.Exec.DataBase, module.PermR|module.PermX)
	}
	if mode&2 != 0 {
		_ = as.Mprotect(as.Exec.CodeBase, module.PermR|module.PermW|module.PermX)
	}
	if mode&4 != 0 {
		base, err := as.Mmap(uint64(len(code)), module.PermR|module.PermW|module.PermX)
		if err != nil || as.WriteBytes(base, code) != nil {
			return nil, [4]uint64{}, false
		}
		bases[2] = base
	}
	return as, bases, true
}

// FuzzStepMatchesReference runs random code bytes — undecodable slots,
// misaligned jumps, partial segment tails, RWX pages, stores into code
// and permission changes — through Step and the reference in lockstep
// on cloned address spaces.
func FuzzStepMatchesReference(f *testing.F) {
	var loop []byte
	for _, in := range []isa.Instr{
		{Op: isa.MOVI, Rd: isa.R4, Imm: 0x11},
		{Op: isa.ST, Rd: isa.R2, Rs: isa.R4, Imm: 8},
		{Op: isa.LD, Rd: isa.R5, Rs: isa.R2, Imm: 8},
		{Op: isa.PUSH, Rs: isa.R5},
		{Op: isa.POP, Rd: isa.R6},
		{Op: isa.ST, Rd: isa.R1, Rs: isa.R4, Imm: 8 * 7},
		{Op: isa.SYSCALL},
		{Op: isa.JMP, Imm: -8 * 8},
	} {
		loop = in.EncodeTo(loop)
	}
	f.Add(loop, []byte{1, 2, 3}, byte(0))
	f.Add(loop, loop[:13], byte(1|1<<3))
	f.Add(loop, []byte{}, byte(2))
	f.Add(loop, []byte{}, byte(4|2<<3))
	f.Add(loop, []byte{}, byte(3<<3))
	f.Add([]byte{0xff, 0, 0, 0, 0, 0, 0, 0}, []byte{}, byte(0))
	f.Add((isa.Instr{Op: isa.JMP, Imm: 3}).EncodeTo(nil), []byte{}, byte(0))
	f.Fuzz(func(t *testing.T, code, data []byte, mode byte) {
		as, bases, ok := fuzzSpace(code, data, mode)
		if !ok {
			return
		}
		ref := as.Clone()
		entry := bases[(mode>>3)&3]
		if entry == 0 {
			entry = bases[0]
		}
		a, b := cpu.New(as), cpu.New(ref)
		for _, c := range []*cpu.CPU{a, b} {
			c.PC = entry
			c.Regs[isa.R1], c.Regs[isa.R2], c.Regs[isa.R3] = bases[0], bases[1], bases[2]
			c.Sys = mprotectSyscalls{}
		}
		sa, sb := newSide(a, false), newSide(b, true)
		for i := 0; i < 512; i++ {
			if stepBoth(t, "fuzz", sa, sb) != nil {
				break
			}
		}
		sameMemory(t, "fuzz", as, ref)
	})
}

// loadProgram assembles a one-function executable and loads it.
func loadProgram(t *testing.T, build func(f *asm.Func)) *module.AddressSpace {
	t.Helper()
	b := asm.NewModule("app")
	b.DataSpace("buf", 64, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	build(f)
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// steps retires n instructions, failing on any error.
func steps(t *testing.T, c *cpu.CPU, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Step(); err != nil {
			t.Fatalf("step %d at %#x: %v", i, c.PC, err)
		}
	}
}

// wantFault requires err to be exactly the fault the address space
// raises for op at addr, reported at pc.
func wantFault(t *testing.T, err error, pc uint64, kind module.FaultKind, addr uint64, op string) {
	t.Helper()
	want := &cpu.Fault{PC: pc, Err: &module.Fault{Kind: kind, Addr: addr, Op: op}}
	if !reflect.DeepEqual(err, want) {
		t.Fatalf("err = %v, want %v", err, want)
	}
}

// movi encodes "movi r0, v".
func movi(v int32) []byte { return (isa.Instr{Op: isa.MOVI, Rd: isa.R0, Imm: v}).EncodeTo(nil) }

// TestMprotectRewriteRunsNewCode: RX -> RW, a new instruction written,
// -> RX; the next Step runs the new bytes through a rebuilt map.
func TestMprotectRewriteRunsNewCode(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) { f.Movi(isa.R0, 1).Movi(isa.R0, 2).Halt() })
	c := cpu.New(as)
	steps(t, c, 1)
	if n := as.CodeMapsBuilt(); n != 1 {
		t.Fatalf("%d maps built, want 1", n)
	}
	if err := as.Mprotect(c.PC, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteBytes(c.PC, movi(7)); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(c.PC, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
	steps(t, c, 1)
	if c.Regs[isa.R0] != 7 {
		t.Fatalf("r0 = %d, want 7 (the rewritten instruction)", c.Regs[isa.R0])
	}
	if n := as.CodeMapsBuilt(); n != 2 {
		t.Fatalf("%d maps built, want 2", n)
	}
}

// TestCursorsFollowASChange: after CPU.AS is replaced by a fork-style
// clone whose code and data then change, the CPU fetches and loads from
// the new address space, not through what it cached for the old one.
func TestCursorsFollowASChange(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) {
		f.AddrOf(isa.R1, "buf")
		f.Ld(isa.R2, isa.R1, 0)
		f.Movi(isa.R0, 1)
		f.Ld(isa.R2, isa.R1, 0)
		f.Halt()
	})
	c := cpu.New(as)
	steps(t, c, 3)
	child := as.Clone()
	pc := c.PC
	if err := child.Mprotect(pc, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	if err := child.WriteBytes(pc, movi(5)); err != nil {
		t.Fatal(err)
	}
	if err := child.Mprotect(pc, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
	if err := child.WriteU64(c.Regs[isa.R1], 77); err != nil {
		t.Fatal(err)
	}
	c.AS = child
	steps(t, c, 2)
	if c.Regs[isa.R0] != 5 || c.Regs[isa.R2] != 77 {
		t.Fatalf("r0=%d r2=%d, want 5 and 77 (the new address space's code and data)", c.Regs[isa.R0], c.Regs[isa.R2])
	}
}

// TestMprotectNoExecFaultsFetch: after RX -> RW the next fetch faults
// exactly as a fetch from a non-executable page does.
func TestMprotectNoExecFaultsFetch(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) { f.Movi(isa.R0, 1).Movi(isa.R0, 2).Halt() })
	c := cpu.New(as)
	steps(t, c, 1)
	if err := as.Mprotect(c.PC, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	pc := c.PC
	wantFault(t, c.Step(), pc, module.FaultPerm, pc, "fetch")
}

// TestWXCodeStoreRunsNextStep: in a W+X code segment a store over the
// next instruction takes effect on the next step, and no map is built.
func TestWXCodeStoreRunsNextStep(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) {
		f.AddrOfLabel(isa.R1, "patch")
		f.Ld(isa.R2, isa.R1, 16) // the encoded "movi r0, 42" below
		f.St(isa.R1, 0, isa.R2)
		f.Label("patch")
		f.Movi(isa.R0, 1)
		f.Halt()
		f.Movi(isa.R0, 42)
	})
	if err := as.Mprotect(as.Exec.CodeBase, module.PermR|module.PermW|module.PermX); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	if _, err := c.Run(100); !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("run: %v", err)
	}
	if c.Regs[isa.R0] != 42 {
		t.Fatalf("r0 = %d, want 42 (the stored instruction)", c.Regs[isa.R0])
	}
	if n := as.CodeMapsBuilt(); n != 0 {
		t.Fatalf("%d maps built for W+X code, want 0", n)
	}
}

// handoff runs CPU steps on its own goroutine, one request at a time.
type handoff struct {
	req  chan int
	done chan error
}

func startThread(c *cpu.CPU) *handoff {
	h := &handoff{req: make(chan int), done: make(chan error)}
	go func() {
		for n := range h.req {
			var err error
			for i := 0; i < n && err == nil; i++ {
				err = c.Step()
			}
			h.done <- err
		}
	}()
	return h
}

func (h *handoff) steps(n int) error {
	h.req <- n
	return <-h.done
}

// TestThreadMprotectInvalidatesCursor: two threads share one address
// space, each CPU on its own goroutine. The first caches the code map;
// the second, running from its own page, makes a system call that makes
// the code writable, rewrites the first thread's next instruction and
// makes the code executable again — the first then runs the new bytes.
// Left writable, the first thread's next fetch faults.
func TestThreadMprotectInvalidatesCursor(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) { f.Movi(isa.R0, 1).Movi(isa.R0, 2).Halt() })
	code := as.Exec.CodeBase
	page, err := as.Mmap(isa.InstrSize*2, module.PermR|module.PermW)
	if err != nil {
		t.Fatal(err)
	}
	writer := (isa.Instr{Op: isa.HALT}).EncodeTo((isa.Instr{Op: isa.SYSCALL}).EncodeTo(nil))
	if err := as.WriteBytes(page, writer); err != nil {
		t.Fatal(err)
	}
	if err := as.Mprotect(page, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
	first := cpu.New(as)
	ta := startThread(first)
	defer close(ta.req)
	if err := ta.steps(1); err != nil {
		t.Fatal(err)
	}
	patch := first.PC
	for _, restore := range []module.Perm{module.PermR | module.PermX, module.PermR | module.PermW} {
		second := cpu.New(as)
		second.PC = page
		second.Sys = sysFunc(func(*cpu.CPU) error {
			if err := as.Mprotect(code, module.PermR|module.PermW); err != nil {
				return err
			}
			if err := as.WriteBytes(patch, movi(9)); err != nil {
				return err
			}
			return as.Mprotect(code, restore)
		})
		tb := startThread(second)
		err := tb.steps(2)
		close(tb.req)
		if !errors.Is(err, cpu.ErrHalted) {
			t.Fatalf("%v: writer: %v", restore, err)
		}
		if restore&module.PermX == 0 {
			wantFault(t, ta.steps(1), patch, module.FaultPerm, patch, "fetch")
			continue
		}
		if err := ta.steps(1); err != nil {
			t.Fatal(err)
		}
		if first.Regs[isa.R0] != 9 {
			t.Fatalf("%v: r0 = %d, want 9 (the other thread's rewrite)", restore, first.Regs[isa.R0])
		}
		first.PC = patch // run the patched slot again in the next case
	}
}

type sysFunc func(c *cpu.CPU) error

func (f sysFunc) Syscall(c *cpu.CPU) error { return f(c) }

// TestDataHintFaults: loads and stores through the CPU's data hint raise
// exactly the address space's faults — a read straddling the end of the
// hinted segment, a store to .text, and a store after Mprotect(PermR)
// of the hinted segment.
func TestDataHintFaults(t *testing.T) {
	as := loadProgram(t, func(f *asm.Func) {
		f.Ld(isa.R5, isa.R1, 0) // prime the hint on .data
		f.Ld(isa.R5, isa.R2, 0) // straddles the end of .data
		f.Halt()
	})
	var data *module.Segment
	for _, s := range as.Segments() {
		if s.Name == "app.data" {
			data = s
		}
	}
	if data == nil {
		t.Fatal("no data segment")
	}
	c := cpu.New(as)
	c.Regs[isa.R1], c.Regs[isa.R2] = data.Base, data.End()-4
	steps(t, c, 1)
	pc := c.PC
	wantFault(t, c.Step(), pc, module.FaultUnmapped, data.End()-4, "read64")

	as = loadProgram(t, func(f *asm.Func) {
		f.St(isa.R1, 0, isa.R5) // prime the hint on .data
		f.St(isa.R2, 0, isa.R5) // store to .text
		f.Halt()
	})
	c = cpu.New(as)
	c.Regs[isa.R1], c.Regs[isa.R2] = as.Exec.DataBase, as.Exec.CodeBase
	steps(t, c, 1)
	pc = c.PC
	wantFault(t, c.Step(), pc, module.FaultPerm, as.Exec.CodeBase, "write64")

	as = loadProgram(t, func(f *asm.Func) {
		f.St(isa.R1, 0, isa.R5)
		f.St(isa.R1, 8, isa.R5)
		f.Halt()
	})
	c = cpu.New(as)
	c.Regs[isa.R1] = as.Exec.DataBase
	steps(t, c, 1)
	if err := as.Mprotect(as.Exec.DataBase, module.PermR); err != nil {
		t.Fatal(err)
	}
	pc = c.PC
	wantFault(t, c.Step(), pc, module.FaultPerm, as.Exec.DataBase+8, "write64")
}

// errStop ends a zero-alloc run without allocating an error.
var errStop = errors.New("stop")

// countdownSyscalls services SYSCALL as a no-op until left runs out.
type countdownSyscalls struct{ left int }

func (s *countdownSyscalls) Syscall(*cpu.CPU) error {
	if s.left--; s.left <= 0 {
		return errStop
	}
	return nil
}

// TestStepZeroAlloc: once its code maps exist, a traced run through
// loads, stores, stack operations, direct, indirect and conditional
// branches and syscalls allocates nothing.
func TestStepZeroAlloc(t *testing.T) {
	b := asm.NewModule("app")
	b.DataSpace("buf", 64, false)
	b.FuncTable("tbl", []string{"leaf"}, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.AddrOf(isa.R6, "tbl").Ld(isa.R6, isa.R6, 0)
	f.AddrOf(isa.R7, "buf")
	f.Label("loop")
	f.Movi(isa.R2, 16)
	f.Label("inner")
	f.St(isa.R7, 0, isa.R2).Ldb(isa.R3, isa.R7, 0).Stb(isa.R7, 9, isa.R3)
	f.Push(isa.R2).Pop(isa.R4)
	f.Call("leaf").CallR(isa.R6)
	f.Addi(isa.R2, -1).Cmpi(isa.R2, 0).Jcc(isa.GT, "inner")
	f.Syscall()
	f.Jmp("loop")
	leaf := b.Func("leaf", 0, false)
	leaf.Ld(isa.R5, isa.R7, 0).Ret()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA())
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	sys := &countdownSyscalls{}
	c.Sys, c.Branch = sys, tr
	run := func() {
		sys.left = 50
		if _, err := c.Run(0); err != errStop {
			t.Fatalf("run: %v", err)
		}
	}
	run()
	if n := as.CodeMapsBuilt(); n != 1 {
		t.Fatalf("%d maps built, want 1", n)
	}
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state Run allocates %.1f times per run, want 0", allocs)
	}
}

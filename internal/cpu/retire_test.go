package cpu_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cpu"
	"flowguard/internal/isa"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace"
)

// retireBoth retires up to n instructions on a with Retire and on b with
// its reference step, one instruction at a time up to the first error,
// and fails the test at the first difference in the count, the error,
// the state, the counters or the emitted branches. It returns the common
// count and error.
func retireBoth(t testing.TB, what string, a, b *side, n uint64) (uint64, error) {
	t.Helper()
	a.branches, b.branches = a.branches[:0], b.branches[:0]
	pc := a.c.PC
	got, ea := a.c.Retire(n)
	var want uint64
	var eb error
	for ; want < n; want++ {
		if eb = b.step(); eb != nil {
			break
		}
	}
	if got != want || !reflect.DeepEqual(ea, eb) {
		t.Fatalf("%s: Retire(%d) at %#x = %d, %v; reference %d, %v", what, n, pc, got, ea, want, eb)
	}
	sameState(t, what, pc, a, b)
	return got, ea
}

// longestBlock returns the most instructions one block of as's code maps
// holds: the longest straight-line run and the stop that ends it.
func longestBlock(as *module.AddressSpace) uint64 {
	most := uint64(1)
	for _, s := range as.Segments() {
		m := as.CodeMapAt(s.Base)
		if m == nil {
			continue
		}
		for pc := s.Base; pc+isa.InstrSize <= s.End(); pc += isa.InstrSize {
			most = max(most, uint64(m.Slot(pc).Run)+1)
		}
	}
	return most
}

// cutter yields Retire budgets: every n from 1 to the longest block, then
// random budgets up to three of those blocks long, and now and then a
// long one that chains many blocks.
type cutter struct {
	n, longest uint64
	rng        *rand.Rand
}

func newCutter(longest uint64, seed int64) *cutter {
	return &cutter{longest: longest, rng: rand.New(rand.NewSource(seed))}
}

func (c *cutter) next() uint64 {
	if c.n < c.longest {
		c.n++
		return c.n
	}
	if c.rng.Intn(8) == 0 {
		return 1 + uint64(c.rng.Intn(4000))
	}
	return 1 + uint64(c.rng.Int63n(int64(3*c.longest)))
}

// retireProcess spawns the same process in two fresh kernels and runs it
// with Retire in one and the reference step in the other, comparing
// after every Retire call; the budgets come from a cutter. Threads the
// process clones join a round-robin rotation in the same order on both
// sides, one Retire call a turn. It stops when the process stops or
// budget instructions have retired.
func retireProcess(t *testing.T, what string, spawn func(*kernelsim.Kernel) (*kernelsim.Process, error), budget uint64, seed int64) {
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
	cut := newCutter(longestBlock(pb.AS), seed)
	type pair struct{ a, b *side }
	tasks := []pair{{newSide(pa.CPU, false), newSide(pb.CPU, true)}}
	var retired uint64
	for len(tasks) > 0 && retired < budget {
		for i := 0; i < len(tasks) && retired < budget; i++ {
			tk := tasks[i]
			n, err := retireBoth(t, what, tk.a, tk.b, min(cut.next(), budget-retired))
			retired += n
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
				tasks = nil
				break
			}
			tasks = append(tasks[:i], tasks[i+1:]...)
			i--
		}
	}
	sameMemory(t, what, pa.AS, pb.AS)
}

// TestRunMatchesReference runs Retire against the fetch-and-decode
// reference step over the fixtures of TestStepMatchesReference, with
// budgets that cut every block at every length, and over hand-built
// programs that fault inside a run, run off a segment's end or into an
// undecodable slot, take a trap from their branch sink, rewrite the code
// the next block chains into, or run from W+X code.
func TestRunMatchesReference(t *testing.T) {
	budget, seeds := uint64(400_000), 12
	if testing.Short() {
		budget, seeds = 60_000, 4
	}
	for i, fx := range processFixtures(t, seeds) {
		retireProcess(t, fx.name, fx.spawn, budget, int64(i))
	}
	for _, rc := range runCases() {
		runCaseMatches(t, rc)
	}
}

// runCase is a hand-built program loaded by fuzzSpace, entered at its
// code base.
type runCase struct {
	name       string
	code, data []byte
	mode       byte
	// setup, if set, prepares each side's CPU once its branch recorder
	// is attached: a syscall handler, a trapping sink.
	setup func(c *cpu.CPU)
}

// errTrap is the trap runCases' sinks raise; a run continues past it.
var errTrap = errors.New("trap")

func enc(ins ...isa.Instr) []byte {
	var b []byte
	for _, in := range ins {
		b = in.EncodeTo(b)
	}
	return b
}

func runCases() []runCase {
	type I = isa.Instr
	faultAt := func(in I) []byte {
		return enc(I{Op: isa.MOVI, Rd: isa.R4, Imm: 5}, I{Op: isa.MOVI, Rd: isa.R5, Imm: 0x10},
			I{Op: isa.MOVI, Rd: isa.R6, Imm: 0}, I{Op: isa.ADDI, Rd: isa.R4, Imm: 1},
			in, I{Op: isa.ADDI, Rd: isa.R4, Imm: 1}, I{Op: isa.HALT})
	}
	var straight []I
	for i := 0; i < 4096/isa.InstrSize; i++ {
		straight = append(straight, I{Op: isa.ADDI, Rd: isa.R4, Imm: int32(i)})
	}
	cases := []runCase{
		{name: "div-zero", code: faultAt(I{Op: isa.DIV, Rd: isa.R4, Rs: isa.R6})},
		{name: "mod-zero", code: faultAt(I{Op: isa.MOD, Rd: isa.R4, Rs: isa.R6})},
		{name: "ld-unmapped", code: faultAt(I{Op: isa.LD, Rd: isa.R7, Rs: isa.R5})},
		{name: "ldb-unmapped", code: faultAt(I{Op: isa.LDB, Rd: isa.R7, Rs: isa.R5, Imm: 3})},
		{name: "st-readonly", code: faultAt(I{Op: isa.ST, Rd: isa.R1, Rs: isa.R4, Imm: 16})},
		{name: "stb-readonly", code: faultAt(I{Op: isa.STB, Rd: isa.R1, Rs: isa.R4, Imm: 3})},
		{name: "st-unmapped", code: faultAt(I{Op: isa.ST, Rd: isa.R5, Rs: isa.R4})},
		// A one-page stack: the loop's pushes run past its bottom.
		{name: "push-past-stack", code: enc(I{Op: isa.PUSH, Rs: isa.R4}, I{Op: isa.ADDI, Rd: isa.R4, Imm: 1},
			I{Op: isa.PUSH, Rs: isa.R4}, I{Op: isa.PUSH, Rs: isa.R4}, I{Op: isa.ADDI, Rd: isa.R4, Imm: 1},
			I{Op: isa.JMP, Imm: -6 * isa.InstrSize})},
		{name: "segment-end", code: enc(I{Op: isa.MOVI, Rd: isa.R4, Imm: 1}, I{Op: isa.ADDI, Rd: isa.R4, Imm: 1},
			I{Op: isa.ADDI, Rd: isa.R4, Imm: 2})},
		// A page of straight-line code runs off its end into the
		// adjacent data segment, made executable: the next block is in
		// another map.
		{name: "segment-end-chain", code: enc(straight...),
			data: enc(I{Op: isa.ADDI, Rd: isa.R4, Imm: 7}, I{Op: isa.HALT}), mode: 1},
		{name: "undecodable", code: append(append(enc(I{Op: isa.MOVI, Rd: isa.R4, Imm: 1},
			I{Op: isa.ADDI, Rd: isa.R4, Imm: 1}), 0xff, 0, 0, 0, 0, 0, 0, 0), enc(I{Op: isa.HALT})...)},
		// Bytes stored over a later slot of the same straight-line run
		// take effect when that slot retires: W+X code has no map.
		{name: "wx-code", code: enc(I{Op: isa.LD, Rd: isa.R4, Rs: isa.R2}, I{Op: isa.ST, Rd: isa.R1, Rs: isa.R4, Imm: 24},
			I{Op: isa.ADDI, Rd: isa.R5, Imm: 1}, I{Op: isa.MOVI, Rd: isa.R6, Imm: 1}, I{Op: isa.HALT}),
			data: enc(I{Op: isa.MOVI, Rd: isa.R6, Imm: 42}), mode: 2},
	}

	// A loop of conditional, direct, call and return branches whose sink
	// raises a trap at every fifth branch.
	loop := enc(
		I{Op: isa.ADDI, Rd: isa.R4, Imm: 1},            // 0
		I{Op: isa.CMPI, Rd: isa.R4, Imm: 60},           // 1
		I{Op: isa.JCC, Aux: uint8(isa.GE), Imm: 3 * 8}, // 2: to 6
		I{Op: isa.CALL, Imm: 3 * 8},                    // 3: to 7
		I{Op: isa.ADDI, Rd: isa.R5, Imm: 1},            // 4
		I{Op: isa.JMP, Imm: -6 * 8},                    // 5: to 0
		I{Op: isa.HALT},                                // 6
		I{Op: isa.ADDI, Rd: isa.R6, Imm: 1},            // 7
		I{Op: isa.RET},                                 // 8
	)
	cases = append(cases, runCase{name: "pending-trap", code: loop, setup: func(c *cpu.CPU) {
		rec, n := c.Branch, 0
		c.Branch = trace.SinkFunc(func(b trace.Branch) {
			rec.Branch(b)
			if n++; n%5 == 0 {
				c.PendingTrap = errTrap
			}
		})
	}})

	// The first SYSCALL makes the code writable, rewrites the slot after
	// it and the target of the jump that follows, and makes the code
	// executable again: the next block, which would chain into the same
	// map, must run the new bytes.
	patched := enc(I{Op: isa.MOVI, Rd: isa.R6, Imm: 42})
	cases = append(cases, runCase{name: "mprotect-rewrite", code: enc(
		I{Op: isa.ADDI, Rd: isa.R5, Imm: 1},
		I{Op: isa.SYSCALL},
		I{Op: isa.MOVI, Rd: isa.R6, Imm: 1}, // 2: patched
		I{Op: isa.JMP, Imm: 8},              // 3: to 5
		I{Op: isa.HALT},
		I{Op: isa.MOVI, Rd: isa.R7, Imm: 1}, // 5: patched
		I{Op: isa.ADDI, Rd: isa.R7, Imm: 1},
		I{Op: isa.HALT},
	), setup: func(c *cpu.CPU) {
		done := false
		c.Sys = sysFunc(func(c *cpu.CPU) error {
			if done {
				return nil
			}
			done = true
			code := c.Regs[isa.R1]
			if err := c.AS.Mprotect(code, module.PermR|module.PermW); err != nil {
				return err
			}
			for _, slot := range []uint64{2, 5} {
				if err := c.AS.WriteBytes(code+slot*isa.InstrSize, patched); err != nil {
					return err
				}
			}
			return c.AS.Mprotect(code, module.PermR|module.PermX)
		})
	}})
	return cases
}

// runCaseMatches runs rc from fresh address spaces once per first budget
// from 1 to two past its longest block, so the first Retire call ends at
// every slot of the first block and beyond, then continues with a
// cutter's budgets until the program stops; a trap does not stop it.
func runCaseMatches(t testing.TB, rc runCase) {
	t.Helper()
	as, _, ok := fuzzSpace(rc.code, rc.data, rc.mode)
	if !ok {
		t.Fatalf("%s: unloadable", rc.name)
	}
	longest := longestBlock(as)
	for first := uint64(1); first <= longest+2; first++ {
		what := fmt.Sprintf("%s/first=%d", rc.name, first)
		var sides [2]*side
		var spaces [2]*module.AddressSpace
		for i := range sides {
			space, bases, _ := fuzzSpace(rc.code, rc.data, rc.mode)
			c := cpu.New(space)
			c.PC = bases[0]
			c.Regs[isa.R1], c.Regs[isa.R2], c.Regs[isa.R3] = bases[0], bases[1], bases[2]
			c.Sys = mprotectSyscalls{}
			sides[i], spaces[i] = newSide(c, i == 1), space
			if rc.setup != nil {
				rc.setup(c)
			}
		}
		cut := newCutter(longest, 1)
		n := first
		for calls := 0; calls < 1000; calls++ {
			if _, err := retireBoth(t, what, sides[0], sides[1], n); err != nil && err != errTrap {
				break
			}
			n = cut.next()
		}
		sameMemory(t, what, spaces[0], spaces[1])
	}
}

// FuzzRunMatchesReference runs the random code of
// FuzzStepMatchesReference through Retire and the reference, with
// Retire budgets drawn from cuts.
func FuzzRunMatchesReference(f *testing.F) {
	for _, rc := range runCases() {
		if rc.setup == nil {
			f.Add(rc.code, rc.data, rc.mode, []byte{1, 2, 3, 5, 8, 13, 21})
		}
	}
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
	f.Add(loop, []byte{1, 2, 3}, byte(0), []byte{})
	f.Add(loop, loop[:13], byte(1|1<<3), []byte{7, 200})
	f.Add(loop, []byte{}, byte(2), []byte{3})
	f.Add(loop, []byte{}, byte(4|2<<3), []byte{9, 1, 1})
	f.Add(loop, []byte{}, byte(3<<3), []byte{255})
	f.Fuzz(func(t *testing.T, code, data []byte, mode byte, cuts []byte) {
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
		for i, left := 0, uint64(512); left > 0; i++ {
			n := uint64(i%8 + 1)
			if len(cuts) > 0 {
				n = uint64(cuts[i%len(cuts)]) + 1
			}
			got, err := retireBoth(t, "fuzz", sa, sb, min(n, left))
			if err != nil {
				break
			}
			left -= got
		}
		sameMemory(t, "fuzz", as, ref)
	})
}

// TestRunZeroAlloc: once its code maps exist, Retire over a loop of
// loads, stores, stack operations, calls, returns and conditional
// branches, with no sink attached, allocates nothing.
func TestRunZeroAlloc(t *testing.T) {
	b := asm.NewModule("app")
	b.DataSpace("buf", 64, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.AddrOf(isa.R7, "buf")
	f.Label("loop")
	f.Movi(isa.R2, 16)
	f.Label("inner")
	f.St(isa.R7, 0, isa.R2).Ldb(isa.R3, isa.R7, 0).Stb(isa.R7, 9, isa.R3)
	f.Push(isa.R2).Pop(isa.R4)
	f.Call("leaf")
	f.Addi(isa.R2, -1).Cmpi(isa.R2, 0).Jcc(isa.GT, "inner")
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
	c := cpu.New(as)
	run := func() {
		if n, err := c.Retire(10_000); n != 10_000 || err != nil {
			t.Fatalf("Retire = %d, %v", n, err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("steady-state Retire allocates %.1f times per run, want 0", allocs)
	}
}

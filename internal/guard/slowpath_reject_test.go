package guard_test

// The slow path's verdict on direct and conditional edges the O-CFG
// lacks: code rewritten through Mprotect after the O-CFG was built,
// which the chain lane's checker rejects and the walk hands to the slow
// path's edge check.

import (
	"slices"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/oracle"
	"flowguard/internal/trace/ipt"
)

// rewriteApp writes a banner a few times (TIP history), then jumps over
// one NOP and takes a conditional branch over another, and writes once
// more before it exits.
func rewriteApp(t *testing.T) *module.Module {
	t.Helper()
	b := asm.NewModule("rewrite").Needs("libc")
	b.DataBytes("banner", []byte("hi\n"), false)
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.Prologue(16)
	for range 4 {
		writeBanner(main)
	}
	branches(main)
	writeBanner(main)
	main.Movi(r0, 0)
	main.Call("exit")
	main.Halt()
	return assemble(t, b)
}

// rewriteCallsApp writes a banner a few times (TIP history), then calls
// a function that jumps over one NOP and takes a conditional branch over
// another, and writes once more, calls times over; then it exits. Each
// call returns to a new site, so the check after it sees a TIP pair no
// earlier check approved.
func rewriteCallsApp(t *testing.T, calls int) *module.Module {
	t.Helper()
	b := asm.NewModule("rewrite").Needs("libc")
	b.DataBytes("banner", []byte("hi\n"), false)
	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.Prologue(16)
	for range 4 {
		writeBanner(main)
	}
	for range calls {
		main.Call("branches")
		writeBanner(main)
	}
	main.Movi(r0, 0)
	main.Call("exit")
	main.Halt()
	f := b.Func("branches", 0, false)
	branches(f)
	f.Ret()
	return assemble(t, b)
}

// writeBanner writes the banner through libc.
func writeBanner(f *asm.Func) {
	f.AddrOf(r0, "banner")
	f.Movi(r1, 3)
	f.Call("write_out")
}

// branches jumps over one NOP and takes a conditional branch over
// another.
func branches(f *asm.Func) {
	f.Jmp("a")
	f.Nop()
	f.Label("a")
	f.Nop().Nop()
	f.Movi(r5, 1)
	f.Cmpi(r5, 1)
	f.Jcc(isa.EQ, "b")
	f.Nop()
	f.Label("b")
	f.Nop().Nop()
}

// assemble assembles b, failing the test on an error.
func assemble(t *testing.T, b *asm.Builder) *module.Module {
	t.Helper()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// retarget moves the branch target of the first instruction with each of
// ops in function fn one slot further, through Mprotect: RX -> RW,
// rewrite, RX.
func retarget(t *testing.T, as *module.AddressSpace, fn string, ops ...isa.Op) {
	t.Helper()
	ops = slices.Clone(ops)
	pc, ok := as.Exec.SymbolAddr(fn)
	if !ok {
		t.Fatalf("no %s", fn)
	}
	var patched []isa.Instr
	var at []uint64
	for ; ; pc += isa.InstrSize {
		raw, err := as.FetchInstr(pc)
		if err != nil {
			t.Fatal(err)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		if in.Op == isa.HALT || in.Op == isa.RET {
			break
		}
		if i := slices.Index(ops, in.Op); i >= 0 {
			ops = slices.Delete(ops, i, i+1)
			in.Imm += isa.InstrSize
			patched, at = append(patched, in), append(at, pc)
		}
	}
	if err := as.Mprotect(pc, module.PermR|module.PermW); err != nil {
		t.Fatal(err)
	}
	for i, in := range patched {
		if err := as.WriteBytes(at[i], in.EncodeTo(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := as.Mprotect(pc, module.PermR|module.PermX); err != nil {
		t.Fatal(err)
	}
}

// rewriteCase is a set of branches to retarget and the reason the slow
// path must kill the process with.
type rewriteCase struct {
	name   string
	ops    []isa.Op
	reason string
}

// runRewritten runs exec under a guard over untrained labels, checking
// at every write, and retargets tc's branches in function fn (retarget)
// before the run when at is 0, or right after the check at the at-th
// write otherwise. It fails the test unless the reference oracle agrees
// with every check and the process is killed after the rewrite with
// tc's reason. It returns the write whose check killed the process and
// how many checks took the slow path before the rewrite and in all.
func runRewritten(t *testing.T, exec *module.Module, fn string, tc rewriteCase, at int) (killedAt, slowBefore, slow int) {
	t.Helper()
	k := kernelsim.New()
	p, err := k.Spawn("rewrite", exec, map[string]*module.Module{"libc": libcFor(t)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ocfg, err := cfg.Build(p.AS)
	if err != nil {
		t.Fatal(err)
	}
	if at == 0 {
		retarget(t, p.AS, fn, tc.ops...)
	}

	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	p.CPU.Branch = tr
	pol := guard.DefaultPolicy()
	g := guard.New(p.AS, ocfg, itc.FromCFG(ocfg), tr, pol)
	o := oracle.New(p.AS, ocfg, oracle.NewRef(ocfg), tr.Out, oracle.Policy{
		PktCount: pol.PktCount, CredRatio: pol.CredRatio,
	})
	var last guard.Result
	writes := 0
	k.Intercept(kernelsim.SysWrite, func(*kernelsim.Process, uint64) error {
		writes++
		last = g.Check()
		ores := o.Check()
		if uint8(last.Verdict) != uint8(ores.Verdict) || last.UsedSlowPath != ores.UsedSlowPath {
			t.Errorf("write %d: guard %v (slow %v, %s), oracle %v (slow %v, %s)", writes, last.Verdict, last.UsedSlowPath,
				last.Reason, ores.Verdict, ores.UsedSlowPath, ores.Reason)
		}
		if last.UsedSlowPath {
			slow++
		}
		if last.Verdict == guard.VerdictViolation {
			killedAt = writes
			k.Kill(p, kernelsim.SIGKILL)
			return kernelsim.ErrKilled
		}
		if writes == at {
			slowBefore = slow
			retarget(t, p.AS, fn, tc.ops...)
		}
		return nil
	})
	st, err := k.Run(p, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Killed || last.Verdict != guard.VerdictViolation || killedAt <= at {
		t.Fatalf("rewritten branches not killed after the rewrite at write %d: %v, check at write %d %v", at, st, writes, last.Verdict)
	}
	if last.Reason != tc.reason {
		t.Fatalf("reason %q, want %q", last.Reason, tc.reason)
	}
	return killedAt, slowBefore, slow
}

// TestSlowPathRejectsRewrittenDirectEdges: a JMP and a JCC rewritten
// after cfg.Build land one instruction past the targets the O-CFG holds.
// Over untrained labels every check takes the slow path; the one whose
// window holds the rewritten branches must be a violation naming the
// first of them, with the reason the slow path has always given, and
// the reference oracle must agree with every verdict.
func TestSlowPathRejectsRewrittenDirectEdges(t *testing.T) {
	exec := rewriteApp(t)
	for _, tc := range []rewriteCase{
		{"jmp+jcc", []isa.Op{isa.JMP, isa.JCC},
			"slow path: O-CFG mismatch: direct rewrite!main+0x98 -> rewrite!main+0xb0"},
		{"jcc", []isa.Op{isa.JCC},
			"slow path: O-CFG mismatch: cond rewrite!main+0xc8 -> rewrite!main+0xe0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, slow := runRewritten(t, exec, "main", tc, 0); slow < 2 {
				t.Fatalf("%d checks took the slow path, want the clean ones before the rewrite too", slow)
			}
		})
	}
}

// TestSlowPathRejectsRewrittenDirectEdgesWarmMemo makes the same rewrite
// mid-run, to branches in a function called three times. The clean
// slow-path checks after the first two calls walk the branches, filling
// the guard's chain memo with the chain that crosses them and then
// reading it back. The branches are rewritten only then, and the check
// after the third call must reject them, with the exact reason and the
// oracle agreeing.
func TestSlowPathRejectsRewrittenDirectEdgesWarmMemo(t *testing.T) {
	exec := rewriteCallsApp(t, 3)
	for _, tc := range []rewriteCase{
		{"jmp+jcc", []isa.Op{isa.JMP, isa.JCC},
			"slow path: O-CFG mismatch: direct rewrite!branches -> rewrite!branches+0x18"},
		{"jcc", []isa.Op{isa.JCC},
			"slow path: O-CFG mismatch: cond rewrite!branches+0x30 -> rewrite!branches+0x48"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Writes 1-4 are the first banners; write 4+i follows call i.
			killedAt, before, _ := runRewritten(t, exec, "branches", tc, 6)
			if before < 2 {
				t.Fatalf("%d checks took the slow path before the rewrite, want those after the first two calls", before)
			}
			if killedAt != 7 {
				t.Fatalf("killed at write %d, want 7: the first check after the rewritten branches ran", killedAt)
			}
		})
	}
}

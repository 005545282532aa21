package kernelsim_test

// Fork lifecycle unit tests: both sides of the fork return correctly,
// the child gets an isolated address-space clone with copied register
// state, each side advances its own stdin cursor, and a vetoing OnFork
// hook (the kernel module's protection-inheritance failure path) kills
// the fork without ever scheduling an unprotected child.

import (
	"errors"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/isa"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
)

// forkSidesModule forks, then each side overwrites the shared data byte
// with its own tag, rereads it, writes it to stdout and exits — the
// parent additionally exits with the child's PID as its code.
func forkSidesModule(t *testing.T) *module.Module {
	t.Helper()
	b := asm.NewModule("forker")
	b.DataBytes("tag", []byte{'?'}, true)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysFork)
	f.Syscall()
	f.Mov(isa.R11, isa.R0) // fork return: 0 in the child, child PID in the parent
	f.Cmpi(isa.R11, 0)
	f.Jcc(isa.EQ, "child")
	f.Movi(isa.R8, 'p')
	f.Jmp("stamp")
	f.Label("child")
	f.Movi(isa.R8, 'c')
	f.Label("stamp")
	f.AddrOf(isa.R9, "tag")
	f.Stb(isa.R9, 0, isa.R8)
	// write(1, tag, 1) — rereads through the (cloned) address space.
	f.Movu64(isa.R7, kernelsim.SysWrite)
	f.Movi(isa.R0, 1)
	f.AddrOf(isa.R1, "tag")
	f.Movi(isa.R2, 1)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Mov(isa.R0, isa.R11)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkBothSidesRun(t *testing.T) {
	k := kernelsim.New()
	p, err := k.Spawn("forker", forkSidesModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := k.RunMulticore([]*kernelsim.Process{p}, 1, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("got %d exit statuses, want parent + child", len(sts))
	}
	if !sts[0].Exited || sts[0].Code == 0 {
		t.Fatalf("parent status %v, want exit with the child PID", sts[0])
	}
	if !sts[1].Exited || sts[1].Code != 0 {
		t.Fatalf("child status %v, want exit 0", sts[1])
	}
	// Each side stamped its own tag into its own address space: the
	// clone isolated the write, so neither output is '?' or mixed.
	if string(p.Stdout) != "p" {
		t.Errorf("parent stdout %q, want %q", p.Stdout, "p")
	}
	kids := k.Procs()
	child := kids[sts[0].Code]
	if child == nil {
		t.Fatalf("child PID %d not in the process table", sts[0].Code)
	}
	if string(child.Stdout) != "c" {
		t.Errorf("child stdout %q, want %q (address space not isolated)", child.Stdout, "c")
	}
	if child.CR3 == p.CR3 {
		t.Error("child shares the parent's CR3; trace filtering cannot tell them apart")
	}
	if child.AS == p.AS {
		t.Error("child shares the parent's address space object")
	}
}

// forkStdinModule forks, then both sides read one byte from stdin and
// echo it: each side has its own stdin cursor copied at fork time, so
// both read the same next byte.
func forkStdinModule(t *testing.T) *module.Module {
	t.Helper()
	b := asm.NewModule("forkcat")
	b.DataSpace("buf", 8, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	// Consume one byte before the fork so the copied cursor is nonzero.
	f.Movu64(isa.R7, kernelsim.SysRead)
	f.Movi(isa.R0, 0)
	f.AddrOf(isa.R1, "buf")
	f.Movi(isa.R2, 1)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysFork)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysRead)
	f.Movi(isa.R0, 0)
	f.AddrOf(isa.R1, "buf")
	f.Movi(isa.R2, 1)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysWrite)
	f.Movi(isa.R0, 1)
	f.AddrOf(isa.R1, "buf")
	f.Movi(isa.R2, 1)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Movi(isa.R0, 0)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestForkCopiesStdinCursor(t *testing.T) {
	k := kernelsim.New()
	p, err := k.Spawn("forkcat", forkStdinModule(t), nil, nil, []byte("xyz"))
	if err != nil {
		t.Fatal(err)
	}
	sts, err := k.RunMulticore([]*kernelsim.Process{p}, 1, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 {
		t.Fatalf("got %d exit statuses, want 2", len(sts))
	}
	// 'x' was consumed pre-fork; both sides then independently read 'y'.
	if string(p.Stdout) != "y" {
		t.Errorf("parent read %q after fork, want %q", p.Stdout, "y")
	}
	for _, q := range k.Procs() {
		if q.PID != p.PID && string(q.Stdout) != "y" {
			t.Errorf("child read %q after fork, want %q (cursor not copied)", q.Stdout, "y")
		}
	}
}

// TestForkVetoedByHook pins the protection-inheritance failure
// contract: when OnFork rejects the child, the parent sees the fork
// fail, the child is removed from the process table, and it never runs.
func TestForkVetoedByHook(t *testing.T) {
	k := kernelsim.New()
	k.OnFork = func(parent, child *kernelsim.Process) error {
		return errors.New("no protection available")
	}
	p, err := k.Spawn("forker", forkSidesModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := k.RunMulticore([]*kernelsim.Process{p}, 1, 50, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 1 {
		t.Fatalf("vetoed fork still scheduled a child: %d statuses", len(sts))
	}
	// fork returned -1: the parent takes the parent branch ('p' tag)
	// and exits with the failure value truncated to an int.
	if string(p.Stdout) != "p" {
		t.Errorf("parent stdout %q after vetoed fork, want %q", p.Stdout, "p")
	}
	if len(k.Procs()) != 1 {
		t.Errorf("process table holds %d entries after a vetoed fork, want 1", len(k.Procs()))
	}
	if kids := k.TakeForked(); len(kids) != 0 {
		t.Errorf("vetoed child left in the forked queue: %d entries", len(kids))
	}
}

// TestForkRegisterAndPCInheritance pins the low-level contract Fork
// promises: the child resumes at the parent's PC with the parent's
// registers (except the fork return value) and a cloned address space.
func TestForkRegisterAndPCInheritance(t *testing.T) {
	k := kernelsim.New()
	p, err := k.Spawn("forker", forkSidesModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.CPU.Regs[isa.R5] = 0xDEADBEEF
	child, err := k.Fork(p)
	if err != nil {
		t.Fatal(err)
	}
	if child.CPU.PC != p.CPU.PC {
		t.Errorf("child PC %#x, parent PC %#x", child.CPU.PC, p.CPU.PC)
	}
	if child.CPU.Regs[isa.R5] != 0xDEADBEEF {
		t.Error("child did not inherit the parent's register file")
	}
	if child.PID == p.PID || child.CR3 == p.CR3 {
		t.Errorf("child identity not fresh: pid %d/%d cr3 %#x/%#x", child.PID, p.PID, child.CR3, p.CR3)
	}
}

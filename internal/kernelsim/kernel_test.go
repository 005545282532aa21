package kernelsim_test

import (
	"bytes"
	"errors"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/isa"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
)

// helloModule writes "hello\n" to stdout and exits 7.
func helloModule(t *testing.T) *module.Module {
	t.Helper()
	b := asm.NewModule("hello")
	b.DataBytes("msg", []byte("hello\n"), false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysWrite)
	f.Movi(isa.R0, 1)
	f.AddrOf(isa.R1, "msg")
	f.Movi(isa.R2, 6)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Movi(isa.R0, 7)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWriteAndExit(t *testing.T) {
	k := kernelsim.New()
	p, err := k.Spawn("hello", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exited || st.Code != 7 {
		t.Fatalf("status = %v, want exit 7", st)
	}
	if !bytes.Equal(p.Stdout, []byte("hello\n")) {
		t.Errorf("stdout = %q, want hello", p.Stdout)
	}
}

func TestStdinRead(t *testing.T) {
	b := asm.NewModule("cat")
	b.DataSpace("buf", 32, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysRead)
	f.Movi(isa.R0, 0)
	f.AddrOf(isa.R1, "buf")
	f.Movi(isa.R2, 32)
	f.Syscall()
	// echo it back: r2 = bytes read
	f.Mov(isa.R2, isa.R0)
	f.Movu64(isa.R7, kernelsim.SysWrite)
	f.Movi(isa.R0, 1)
	f.AddrOf(isa.R1, "buf")
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Movi(isa.R0, 0)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("cat", m, nil, nil, []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if string(p.Stdout) != "ping" {
		t.Errorf("stdout = %q, want ping", p.Stdout)
	}
}

func TestFileRoundTrip(t *testing.T) {
	b := asm.NewModule("fio")
	b.DataBytes("path", []byte("out.txt\x00"), false)
	b.DataBytes("msg", []byte("DATA"), false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysOpen)
	f.AddrOf(isa.R0, "path")
	f.Syscall()
	f.Mov(isa.R5, isa.R0) // fd
	f.Movu64(isa.R7, kernelsim.SysWrite)
	f.Mov(isa.R0, isa.R5)
	f.AddrOf(isa.R1, "msg")
	f.Movi(isa.R2, 4)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysClose)
	f.Mov(isa.R0, isa.R5)
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Movi(isa.R0, 0)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("fio", m, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	got, ok := k.FileContents("out.txt")
	if !ok || string(got) != "DATA" {
		t.Errorf("file contents = %q (ok=%v), want DATA", got, ok)
	}
}

func TestInterceptorVeto(t *testing.T) {
	k := kernelsim.New()
	var intercepted []uint64
	k.Intercept(kernelsim.SysWrite, func(p *kernelsim.Process, sysno uint64) error {
		intercepted = append(intercepted, sysno)
		k.Kill(p, kernelsim.SIGKILL)
		return kernelsim.ErrKilled
	})
	p, err := k.Spawn("hello", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Killed || st.Signal != kernelsim.SIGKILL {
		t.Fatalf("status = %v, want SIGKILL", st)
	}
	if len(intercepted) != 1 || intercepted[0] != kernelsim.SysWrite {
		t.Errorf("intercepted = %v, want [write]", intercepted)
	}
	if len(p.Stdout) != 0 {
		t.Errorf("vetoed write still produced output %q", p.Stdout)
	}

	// Uninstall restores the original handler.
	k.Uninstall(kernelsim.SysWrite)
	p2, err := k.Spawn("hello", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := k.Run(p2, 1000); err != nil || !st.Exited {
		t.Fatalf("after uninstall: %v, %v", st, err)
	}
}

func TestInterceptorErrorSurfaced(t *testing.T) {
	// An interceptor failing with a non-sentinel error is a broken
	// checker, not a verdict: the process stops fail-closed (SIGKILL),
	// the run is not aborted, and the error is recorded on the kernel.
	k := kernelsim.New()
	boom := errors.New("checker exploded")
	k.Intercept(kernelsim.SysWrite, func(p *kernelsim.Process, sysno uint64) error {
		return boom
	})
	p, err := k.Spawn("hello", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatalf("interceptor error aborted the run: %v", err)
	}
	if !st.Killed || st.Signal != kernelsim.SIGKILL {
		t.Fatalf("status = %v, want fail-closed SIGKILL", st)
	}
	var ie *kernelsim.InterceptError
	if !errors.As(st.FaultErr, &ie) {
		t.Fatalf("FaultErr = %v, want *InterceptError", st.FaultErr)
	}
	if ie.PID != p.PID || ie.Sysno != kernelsim.SysWrite || !errors.Is(ie, boom) {
		t.Errorf("InterceptError = %+v, want pid %d write wrapping boom", ie, p.PID)
	}
	recorded := k.InterceptErrors()
	if len(recorded) != 1 || recorded[0] != ie {
		t.Errorf("InterceptErrors() = %v, want the one recorded failure", recorded)
	}
	if len(p.Stdout) != 0 {
		t.Errorf("failed interception still produced output %q", p.Stdout)
	}
}

func TestInterceptorPassThrough(t *testing.T) {
	k := kernelsim.New()
	calls := 0
	k.Intercept(kernelsim.SysWrite, func(p *kernelsim.Process, sysno uint64) error {
		calls++
		return nil
	})
	p, _ := k.Spawn("hello", helloModule(t), nil, nil, nil)
	st, err := k.Run(p, 1000)
	if err != nil || !st.Exited {
		t.Fatalf("run: %v %v", st, err)
	}
	if calls != 1 {
		t.Errorf("interceptor calls = %d, want 1", calls)
	}
	if string(p.Stdout) != "hello\n" {
		t.Errorf("stdout = %q; pass-through interceptor must not block the write", p.Stdout)
	}
}

func TestSigreturnRestoresFullContext(t *testing.T) {
	// Build a forged signal frame on the stack, invoke sigreturn, and
	// verify the full register file (including SP and PC) comes from the
	// frame — the capability SROP abuses.
	b := asm.NewModule("srop")
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	// Reserve the frame.
	f.Addi(isa.SP, -8*kernelsim.SigFrameWords)
	// frame[i] = 100+i for the 16 GPRs.
	for i := 0; i < isa.NumRegs; i++ {
		f.Movi(isa.R6, int32(100+i))
		f.St(isa.SP, int32(8*i), isa.R6)
	}
	// frame[16] = &landing (PC), frame[17] = flags(Z).
	f.AddrOf(isa.R6, "landing")
	f.St(isa.SP, 8*16, isa.R6)
	f.Movi(isa.R6, 1)
	f.St(isa.SP, 8*17, isa.R6)
	f.Movu64(isa.R7, kernelsim.SysSigreturn)
	f.Syscall()
	f.Halt() // never reached
	g := b.Func("landing", 0, false)
	g.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("srop", m, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Exited {
		t.Fatalf("status = %v, want clean halt at landing", st)
	}
	c := p.CPU
	landing, _ := p.AS.Exec.SymbolAddr("landing")
	if c.PC != landing+isa.InstrSize {
		t.Errorf("PC = %#x, want past landing %#x", c.PC, landing)
	}
	for i := 0; i < isa.NumRegs; i++ {
		if c.Regs[i] != uint64(100+i) {
			t.Errorf("r%d = %d, want %d", i, c.Regs[i], 100+i)
		}
	}
	if !c.FlagZ || c.FlagN {
		t.Errorf("flags Z=%v N=%v, want Z only", c.FlagZ, c.FlagN)
	}
}

func TestSegfaultOnWildPointer(t *testing.T) {
	b := asm.NewModule("segv")
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movi(isa.R1, 16)
	f.Ld(isa.R0, isa.R1, 0) // unmapped
	f.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("segv", m, nil, nil, nil)
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Killed || st.Signal != kernelsim.SIGSEGV || st.FaultErr == nil {
		t.Errorf("status = %+v, want SIGSEGV with fault", st)
	}
}

func TestExecveRecorded(t *testing.T) {
	b := asm.NewModule("ex")
	b.DataBytes("sh", []byte("/bin/sh\x00"), false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysExecve)
	f.AddrOf(isa.R0, "sh")
	f.Syscall()
	f.Movu64(isa.R7, kernelsim.SysExit)
	f.Movi(isa.R0, 0)
	f.Syscall()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("ex", m, nil, nil, nil)
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	if len(p.Execves) != 1 || p.Execves[0].Path != "/bin/sh" {
		t.Errorf("execves = %+v, want one /bin/sh", p.Execves)
	}
}

func TestMmapMprotectSyscalls(t *testing.T) {
	b := asm.NewModule("mm")
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, kernelsim.SysMmap)
	f.Movi(isa.R0, 0)
	f.Movi(isa.R1, 0x1000)
	f.Movi(isa.R2, kernelsim.ProtRead|kernelsim.ProtWrite)
	f.Syscall()
	f.Mov(isa.R5, isa.R0) // base
	f.Movi(isa.R6, 0x99)
	f.St(isa.R5, 0, isa.R6)
	f.Movu64(isa.R7, kernelsim.SysMprotect)
	f.Mov(isa.R0, isa.R5)
	f.Movi(isa.R1, 0x1000)
	f.Movi(isa.R2, kernelsim.ProtRead)
	f.Syscall()
	f.St(isa.R5, 8, isa.R6) // faults: now read-only
	f.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("mm", m, nil, nil, nil)
	st, err := k.Run(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Killed || st.Signal != kernelsim.SIGSEGV {
		t.Fatalf("status = %v, want SIGSEGV from post-mprotect store", st)
	}
}

func TestGettimeofdayMonotonic(t *testing.T) {
	b := asm.NewModule("tod")
	b.DataSpace("tv", 16, false)
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	for i := 0; i < 2; i++ {
		f.Movu64(isa.R7, kernelsim.SysGettimeofday)
		f.AddrOf(isa.R0, "tv")
		f.Addi(isa.R0, int32(8*i))
		f.Syscall()
	}
	f.AddrOf(isa.R1, "tv")
	f.Ld(isa.R2, isa.R1, 0)
	f.Ld(isa.R3, isa.R1, 8)
	f.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("tod", m, nil, nil, nil)
	if _, err := k.Run(p, 1000); err != nil {
		t.Fatal(err)
	}
	t1, t2 := p.CPU.Regs[isa.R2], p.CPU.Regs[isa.R3]
	if t2 <= t1 {
		t.Errorf("clock not monotonic: %d then %d", t1, t2)
	}
}

func TestUnknownSyscallReturnsError(t *testing.T) {
	b := asm.NewModule("unk")
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Movu64(isa.R7, 999)
	f.Syscall()
	f.Halt()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("unk", m, nil, nil, nil)
	st, err := k.Run(p, 1000)
	if err != nil || !st.Exited {
		t.Fatalf("run: %v %v", st, err)
	}
	if p.CPU.Regs[isa.R0] != ^uint64(0) {
		t.Errorf("unknown syscall returned %d, want -1", int64(p.CPU.Regs[isa.R0]))
	}
}

func TestErrSentinelsAreDistinct(t *testing.T) {
	if errors.Is(kernelsim.ErrExited, kernelsim.ErrKilled) {
		t.Fatal("sentinels must be distinct")
	}
}

// TestRunMulticoreOneCoreRoundRobin pins the single-core multi-process
// schedule: one core, round-robin slices of the quantum, every slice
// start announced through OnCoreSwitch on core 0.
func TestRunMulticoreOneCoreRoundRobin(t *testing.T) {
	k := kernelsim.New()
	p1, err := k.Spawn("a", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := k.Spawn("b", helloModule(t), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var switches []int
	k.OnCoreSwitch = func(core int, p *kernelsim.Process, _ *kernelsim.Thread) {
		if core != 0 {
			t.Errorf("one-core schedule ran a slice on core %d", core)
		}
		switches = append(switches, p.PID)
	}
	sts, err := k.RunMulticore([]*kernelsim.Process{p1, p2}, 1, 4, 100000)
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if !st.Exited || st.Code != 7 {
			t.Errorf("proc %d: %v, want exit 7", i, st)
		}
	}
	if string(p1.Stdout) != "hello\n" || string(p2.Stdout) != "hello\n" {
		t.Errorf("outputs: %q / %q", p1.Stdout, p2.Stdout)
	}
	// The quantum forces genuine interleaving: both PIDs appear, and the
	// schedule alternates at least once before either finishes.
	seen := map[int]bool{}
	alternations := 0
	for i, pid := range switches {
		seen[pid] = true
		if i > 0 && switches[i-1] != pid {
			alternations++
		}
	}
	if len(seen) != 2 || alternations < 2 {
		t.Errorf("switch schedule %v not interleaved", switches)
	}
}

func TestRunMulticoreOneCoreBudget(t *testing.T) {
	// An infinite-loop module must trip the total budget.
	b := asm.NewModule("spin")
	f := b.Func("main", 0, true)
	b.SetEntry("main")
	f.Label("x")
	f.Jmp("x")
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, _ := k.Spawn("spin", m, nil, nil, nil)
	if _, err := k.RunMulticore([]*kernelsim.Process{p}, 1, 16, 1000); err == nil {
		t.Fatal("budget not enforced")
	}
}

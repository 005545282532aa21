// Package kernelsim models the OS pieces FlowGuard's kernel module needs:
// processes identified by CR3 values, a syscall table whose entries can be
// temporarily replaced by interceptors (paper §5.2), signal delivery
// (SIGKILL on CFI violation), and the sigreturn machinery SROP abuses.
//
// The kernel is trusted per the threat model (§3.3): its services cannot
// be subverted by the user-level attacker, DEP/NX is in force (the address
// space refuses to execute writable memory), and code pages are read-only.
//
// Network servers consume input from their stdin stream: the paper itself
// channels socket traffic to the console with preeny's desock module for
// fuzzing, and this reproduction adopts the same convention everywhere.
package kernelsim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"flowguard/internal/cpu"
	"flowguard/internal/isa"
	"flowguard/internal/module"
)

// Syscall numbers (Linux x86-64 flavored).
const (
	SysRead         uint64 = 0
	SysWrite        uint64 = 1
	SysOpen         uint64 = 2
	SysClose        uint64 = 3
	SysMmap         uint64 = 9
	SysMprotect     uint64 = 10
	SysSigaction    uint64 = 13
	SysSigreturn    uint64 = 15
	SysGetpid       uint64 = 39
	SysClone        uint64 = 56
	SysFork         uint64 = 57
	SysExecve       uint64 = 59
	SysExit         uint64 = 60
	SysKill         uint64 = 62
	SysGettid       uint64 = 186
	SysGettimeofday uint64 = 96
)

// SyscallName returns a human-readable name for diagnostics.
func SyscallName(n uint64) string {
	names := map[uint64]string{
		SysRead: "read", SysWrite: "write", SysOpen: "open", SysClose: "close",
		SysMmap: "mmap", SysMprotect: "mprotect", SysSigaction: "sigaction",
		SysSigreturn: "sigreturn", SysGetpid: "getpid", SysClone: "clone",
		SysFork: "fork", SysExecve: "execve", SysExit: "exit",
		SysKill: "kill", SysGettid: "gettid", SysGettimeofday: "gettimeofday",
	}
	if s, ok := names[n]; ok {
		return s
	}
	return fmt.Sprintf("sys_%d", n)
}

// Signal numbers.
const (
	SIGKILL = 9
	SIGSEGV = 11
)

// Sentinel errors stopping a process's CPU loop.
var (
	// ErrExited reports a clean exit via the exit syscall.
	ErrExited = errors.New("kernelsim: process exited")
	// ErrKilled reports signal death (SIGKILL from the guard, SIGSEGV
	// from a fault).
	ErrKilled = errors.New("kernelsim: process killed")
)

// Interceptor is an alternative syscall handler installed over a
// syscall-table entry. It runs before the original handler with full
// access to the calling process; returning an error vetoes the syscall
// and stops the process (FlowGuard returns ErrKilled after SIGKILL).
type Interceptor func(p *Process, sysno uint64) error

// InterceptError reports an interceptor that failed for a reason other
// than the sentinel kill/exit outcomes — the checker itself broke, not
// the checked process. The kernel records it (InterceptErrors) and the
// affected process is stopped fail-closed with SIGKILL; the scheduler
// keeps running the other processes instead of aborting the whole run.
type InterceptError struct {
	PID   int
	Sysno uint64
	Err   error
}

func (e *InterceptError) Error() string {
	return fmt.Sprintf("kernelsim: intercepting %s for pid %d: %v",
		SyscallName(e.Sysno), e.PID, e.Err)
}

func (e *InterceptError) Unwrap() error { return e.Err }

// ExecveRecord logs an execve attempt (the classic attacker goal).
type ExecveRecord struct {
	Path string
	PC   uint64
}

// Process is one user-level process.
type Process struct {
	PID  int
	Name string
	// CR3 is the page-directory base: the identity IPT's CR3 filter
	// matches on.
	CR3 uint64
	AS  *module.AddressSpace
	CPU *cpu.CPU

	stdin    []byte
	stdinPos int
	// Stdout accumulates fd-1/fd-2 writes.
	Stdout []byte

	files  map[int]*openFile
	nextFD int

	// SignalHandlers maps signal number to registered handler address.
	SignalHandlers map[uint64]uint64

	// Threads lists the process's threads, main thread first. All of
	// them share the address space, CR3, file table, and signal state;
	// each has private registers, stack pointer, and flags. Threads
	// beyond the first execute only under RunMulticore.
	Threads []*Thread

	// sigMu guards pendingSigs and the thread list against cross-process
	// senders (SysKill from another process's syscall dispatch).
	sigMu sync.Mutex
	// pendingSigs queues signals sent by other processes; the multicore
	// scheduler delivers them at the target's next slice boundary.
	pendingSigs []uint64
	// curThread is the thread whose slice is currently executing, set by
	// the multicore scheduler so interceptors (whose signature predates
	// threads) can attribute a syscall to the right thread.
	curThread *Thread

	// Execves records execve attempts.
	Execves []ExecveRecord

	// Exit state.
	Exited   bool
	ExitCode int
	Killed   bool
	Signal   int

	kern *Kernel
}

type openFile struct {
	name string
	pos  int
}

// StdinRemaining returns the unread stdin bytes.
func (p *Process) StdinRemaining() int { return len(p.stdin) - p.stdinPos }

// Kernel is the machine-wide OS model.
//
// Kernel services reachable from syscall dispatch (filesystem, clock,
// syscall accounting, fork/clone bookkeeping, cross-process signals) are
// safe for concurrent use. The kernel's own schedulers (Run,
// RunMulticore) dispatch serially; the locks let a caller drive several
// processes' syscalls from separate goroutines. Per-process state IS
// touched concurrently once a process has threads or receives
// cross-process signals: the thread list and pending-signal queue are
// guarded by the process's sigMu, while a thread's registers and the
// rest of the per-process state are only ever touched by the scheduler
// slice currently running that task (the multicore scheduler is a
// deterministic serial interleaving, so no two slices overlap). Setup
// calls (Spawn, Intercept) remain init-time only: configure everything
// before the run starts, as a real kernel module's init does.
type Kernel struct {
	procs    map[int]*Process
	nextPID  int
	nextCR3  uint64
	intercep map[uint64]Interceptor
	// fsMu guards fs against concurrent syscall dispatch.
	fsMu sync.Mutex
	// fs is a trivial in-memory filesystem shared by all processes.
	fs map[string][]byte
	// clock is a deterministic logical clock for gettimeofday (atomic).
	clock uint64
	// SyscallCount counts dispatched syscalls (diagnostics; updated
	// atomically, read it after the run).
	SyscallCount uint64
	// gateNanos/gateCalls meter the syscall gate: cumulative wall-clock
	// time processes spent blocked inside intercepted syscall handlers,
	// and how many intercepted calls there were (atomics). This is the
	// paper's syscall-blocked time, measured at the interception point
	// itself, so synchronous and asynchronous checking are compared at
	// the exact same boundary.
	gateNanos uint64
	gateCalls uint64
	// errMu guards interceptErrs against concurrent syscall dispatch.
	errMu sync.Mutex
	// interceptErrs records interceptor failures (see InterceptError).
	interceptErrs []*InterceptError
	// OnFork, if set, runs inside fork dispatch after the child is
	// built but before either side resumes — where the kernel module
	// inherits protection onto the child (guard.KernelModule wires
	// ProtectForked here). An error vetoes the fork: the child is
	// discarded and fork returns -1 to the parent, because a child the
	// module failed to protect must never run unprotected.
	OnFork func(parent, child *Process) error
	// OnCoreSwitch, if set, runs at every slice start of RunMulticore
	// with the core about to execute the task — where the kernel
	// reprograms the core's trace unit: save the outgoing task's trace
	// context, restore the incoming one's, and emit the PIP/MODE
	// context-switch marker into the core's shared stream; on one core
	// with a CR3-filtered unit, just retarget the filter (§5.1/§6).
	OnCoreSwitch func(core int, p *Process, t *Thread)
	// OnAsyncFlow, if set, observes every kernel-performed control
	// transfer invisible to the CPU's branch retirement: signal delivery
	// (from = interrupted PC, to = handler entry) and sigreturn (from =
	// the instruction after the syscall, to = the restored context). The
	// trace unit renders it as the FUP+TIP asynchronous-event shape.
	OnAsyncFlow func(p *Process, from, to uint64)

	// forkMu guards the process table and PID/CR3 allocation: unlike
	// Spawn (setup-time only), fork happens during the run, possibly
	// from several processes' syscall dispatch at once.
	forkMu sync.Mutex
	// forked accumulates children created since the last TakeForked
	// drain; RunMulticore picks them up at every sweep.
	forked []*Process
	// cloned accumulates threads created by clone since the last
	// TakeCloned drain; RunMulticore picks them up at every sweep.
	cloned []*Thread
	// nextTID allocates thread IDs for clone (main threads reuse the
	// PID, Linux-style).
	nextTID int
}

// New returns an empty kernel.
func New() *Kernel {
	return &Kernel{
		procs:    make(map[int]*Process),
		nextPID:  1000,
		nextCR3:  0x1000_0000,
		intercep: make(map[uint64]Interceptor),
		fs:       make(map[string][]byte),
	}
}

// Intercept installs an alternative handler for the syscall-table entry,
// the mechanism FlowGuard's kernel module uses for its security-sensitive
// endpoints (§5.2). It replaces any previous interceptor for that entry.
func (k *Kernel) Intercept(sysno uint64, h Interceptor) { k.intercep[sysno] = h }

// GateWait returns the cumulative wall-clock time processes spent
// blocked inside intercepted syscall handlers and the number of
// intercepted calls — the syscall-blocked time the asynchronous checking
// pipeline exists to shrink. Safe to call concurrently with a run;
// read it after the run for a stable value.
func (k *Kernel) GateWait() (time.Duration, uint64) {
	return time.Duration(atomic.LoadUint64(&k.gateNanos)), atomic.LoadUint64(&k.gateCalls)
}

// Uninstall removes the interceptor for a syscall-table entry, restoring
// the original handler.
func (k *Kernel) Uninstall(sysno uint64) { delete(k.intercep, sysno) }

// InterceptErrors returns the interceptor failures recorded so far, in
// dispatch order. Each corresponds to one process stopped fail-closed
// because its checker errored rather than returning a verdict.
func (k *Kernel) InterceptErrors() []*InterceptError {
	k.errMu.Lock()
	defer k.errMu.Unlock()
	out := make([]*InterceptError, len(k.interceptErrs))
	copy(out, k.interceptErrs)
	return out
}

// FileContents returns the contents of an in-memory file.
func (k *Kernel) FileContents(name string) ([]byte, bool) {
	k.fsMu.Lock()
	defer k.fsMu.Unlock()
	b, ok := k.fs[name]
	return b, ok
}

// Spawn creates a process: loads the executable with its libraries and
// the VDSO, assigns a fresh PID and CR3, and wires the CPU's syscall
// dispatch to this kernel.
func (k *Kernel) Spawn(name string, exec *module.Module, libs map[string]*module.Module, vdso *module.Module, stdin []byte) (*Process, error) {
	as, err := module.Load(exec, libs, vdso)
	if err != nil {
		return nil, err
	}
	k.forkMu.Lock()
	p := &Process{
		PID:            k.nextPID,
		Name:           name,
		CR3:            k.nextCR3,
		AS:             as,
		stdin:          stdin,
		files:          make(map[int]*openFile),
		nextFD:         3,
		SignalHandlers: make(map[uint64]uint64),
		kern:           k,
	}
	k.nextPID++
	k.nextCR3 += 0x1000
	k.procs[p.PID] = p
	k.forkMu.Unlock()
	p.CPU = cpu.New(as)
	main := &Thread{TID: p.PID, CPU: p.CPU, proc: p}
	p.Threads = []*Thread{main}
	p.CPU.Sys = &procSyscalls{k: k, p: p, t: main}
	return p, nil
}

// Fork creates a child of parent: a fresh PID and CR3 (the trace-unit
// filter key), a private copy of the address space, and a CPU resuming
// at the parent's current PC with identical registers — the fork(2)
// contract. File descriptors, stdin position, signal handlers and the
// execve log are copied; accumulated Stdout is not (the child starts
// with an empty output buffer, like a real fork's unflushed-stdio
// hygiene). The caller differentiates the two sides via the fork return
// value, which the syscall dispatch sets after Fork returns.
//
// Fork is safe to call concurrently from syscall dispatch: the process
// table is locked for the insertion, and the child is queued for
// TakeForked / RunMulticore pickup.
func (k *Kernel) Fork(parent *Process) (*Process, error) {
	if parent.AS == nil || parent.CPU == nil {
		return nil, errors.New("kernelsim: fork of an unspawned process")
	}
	as := parent.AS.Clone()
	k.forkMu.Lock()
	child := &Process{
		PID:            k.nextPID,
		Name:           parent.Name,
		CR3:            k.nextCR3,
		AS:             as,
		stdin:          parent.stdin,
		stdinPos:       parent.stdinPos,
		files:          make(map[int]*openFile, len(parent.files)),
		nextFD:         parent.nextFD,
		SignalHandlers: make(map[uint64]uint64, len(parent.SignalHandlers)),
		kern:           k,
	}
	k.nextPID++
	k.nextCR3 += 0x1000
	k.procs[child.PID] = child
	k.forkMu.Unlock()
	for fd, f := range parent.files {
		cf := *f
		child.files[fd] = &cf
	}
	for sig, h := range parent.SignalHandlers {
		child.SignalHandlers[sig] = h
	}
	child.Execves = append([]ExecveRecord(nil), parent.Execves...)
	c := cpu.New(as)
	c.Regs = parent.CPU.Regs
	c.PC = parent.CPU.PC
	c.FlagZ = parent.CPU.FlagZ
	c.FlagN = parent.CPU.FlagN
	c.Instrs = parent.CPU.Instrs
	c.CycleCount = parent.CPU.CycleCount
	cm := &Thread{TID: child.PID, CPU: c, proc: child}
	child.Threads = []*Thread{cm}
	c.Sys = &procSyscalls{k: k, p: child, t: cm}
	child.CPU = c
	return child, nil
}

// TakeForked drains the queue of children created by fork since the
// last drain. Callers that run a fixed process set (Run) call this after
// the run to find the children; RunMulticore drains it automatically
// every sweep.
func (k *Kernel) TakeForked() []*Process {
	k.forkMu.Lock()
	out := k.forked
	k.forked = nil
	k.forkMu.Unlock()
	return out
}

// TakeCloned drains the queue of threads created by clone since the
// last drain; RunMulticore drains it automatically every sweep.
func (k *Kernel) TakeCloned() []*Thread {
	k.forkMu.Lock()
	out := k.cloned
	k.cloned = nil
	k.forkMu.Unlock()
	return out
}

// findProc looks up a process by PID under the table lock.
func (k *Kernel) findProc(pid int) *Process {
	k.forkMu.Lock()
	defer k.forkMu.Unlock()
	return k.procs[pid]
}

// Procs returns a snapshot of the process table keyed by PID, children
// created by fork included (fleet accounting and tests).
func (k *Kernel) Procs() map[int]*Process {
	k.forkMu.Lock()
	defer k.forkMu.Unlock()
	out := make(map[int]*Process, len(k.procs))
	for pid, p := range k.procs {
		out[pid] = p
	}
	return out
}

// Kill delivers a fatal signal (the guard's SIGKILL on violation).
func (k *Kernel) Kill(p *Process, sig int) {
	p.Killed = true
	p.Signal = sig
}

// ExitStatus summarizes how a process stopped.
type ExitStatus struct {
	Exited   bool
	Code     int
	Killed   bool
	Signal   int
	FaultErr error
}

func (s ExitStatus) String() string {
	switch {
	case s.Killed:
		return fmt.Sprintf("killed by signal %d", s.Signal)
	case s.Exited:
		return fmt.Sprintf("exited %d", s.Code)
	default:
		return "stopped"
	}
}

// Run executes the process until it exits, is killed, faults, or exceeds
// the instruction budget (0 = unlimited).
func (k *Kernel) Run(p *Process, maxInstrs uint64) (ExitStatus, error) {
	_, err := p.CPU.Run(maxInstrs)
	return k.classify(p, err)
}

// classify converts a CPU-loop error into an exit status; errors the
// scheduler should propagate come back unchanged.
func (k *Kernel) classify(p *Process, err error) (ExitStatus, error) {
	switch {
	case errors.Is(err, ErrExited):
		return ExitStatus{Exited: true, Code: p.ExitCode}, nil
	case errors.Is(err, ErrKilled):
		return ExitStatus{Killed: true, Signal: p.Signal}, nil
	case errors.Is(err, cpu.ErrHalted):
		return ExitStatus{Exited: true, Code: 0}, nil
	default:
		var f *cpu.Fault
		if errors.As(err, &f) {
			k.Kill(p, SIGSEGV)
			return ExitStatus{Killed: true, Signal: SIGSEGV, FaultErr: f}, nil
		}
		var ie *InterceptError
		if errors.As(err, &ie) {
			// A broken checker is not a verdict: stop this process
			// fail-closed and let the scheduler continue the others.
			k.Kill(p, SIGKILL)
			return ExitStatus{Killed: true, Signal: SIGKILL, FaultErr: ie}, nil
		}
		return ExitStatus{}, err
	}
}

// procSyscalls binds the kernel's syscall dispatch to one thread of one
// process (each thread's CPU carries its own handler, so dispatch knows
// which register file and stack it is operating on).
type procSyscalls struct {
	k *Kernel
	p *Process
	t *Thread
}

// Syscall implements cpu.SyscallHandler: run the interceptor for the
// entry (if installed), then the original handler.
func (s *procSyscalls) Syscall(c *cpu.CPU) error {
	k, p := s.k, s.p
	atomic.AddUint64(&k.SyscallCount, 1)
	atomic.AddUint64(&k.clock, 1+c.Instrs%7)
	sysno := c.Regs[isa.R7]
	if h, ok := k.intercep[sysno]; ok {
		start := time.Now()
		err := h(p, sysno)
		atomic.AddUint64(&k.gateNanos, uint64(time.Since(start)))
		atomic.AddUint64(&k.gateCalls, 1)
		if err != nil {
			if errors.Is(err, ErrKilled) || errors.Is(err, ErrExited) {
				return err
			}
			ie := &InterceptError{PID: p.PID, Sysno: sysno, Err: err}
			k.errMu.Lock()
			k.interceptErrs = append(k.interceptErrs, ie)
			k.errMu.Unlock()
			return ie
		}
	}
	return k.dispatch(p, s.t, c, sysno)
}

func (k *Kernel) dispatch(p *Process, t *Thread, c *cpu.CPU, sysno uint64) error {
	a0, a1, a2 := c.Regs[isa.R0], c.Regs[isa.R1], c.Regs[isa.R2]
	setRet := func(v uint64) { c.Regs[isa.R0] = v }
	const eFAIL = ^uint64(0) // -1
	// chargeCopy accounts the kernel's data movement against the
	// process (roughly 16 bytes per cycle), so I/O-heavy programs have
	// realistic baselines in the calibrated cycle model.
	chargeCopy := func(n int) {
		if n > 0 {
			c.CycleCount += uint64(n) / 16
		}
	}

	switch sysno {
	case SysRead:
		n := int(a2)
		if a0 == 0 { // stdin
			avail := len(p.stdin) - p.stdinPos
			if n > avail {
				n = avail
			}
			for i := 0; i < n; i++ {
				if err := p.AS.WriteU8(a1+uint64(i), p.stdin[p.stdinPos+i]); err != nil {
					setRet(eFAIL)
					return nil
				}
			}
			p.stdinPos += n
			chargeCopy(n)
			setRet(uint64(n))
			return nil
		}
		f, ok := p.files[int(a0)]
		if !ok {
			setRet(eFAIL)
			return nil
		}
		k.fsMu.Lock()
		data := k.fs[f.name]
		k.fsMu.Unlock()
		avail := len(data) - f.pos
		if n > avail {
			n = avail
		}
		for i := 0; i < n; i++ {
			if err := p.AS.WriteU8(a1+uint64(i), data[f.pos+i]); err != nil {
				setRet(eFAIL)
				return nil
			}
		}
		f.pos += n
		chargeCopy(n)
		setRet(uint64(n))
	case SysWrite:
		buf, err := p.AS.ReadBytes(a1, int(a2))
		if err != nil {
			setRet(eFAIL)
			return nil
		}
		if a0 == 1 || a0 == 2 {
			p.Stdout = append(p.Stdout, buf...)
		} else if f, ok := p.files[int(a0)]; ok {
			k.fsMu.Lock()
			k.fs[f.name] = append(k.fs[f.name], buf...)
			k.fsMu.Unlock()
		} else {
			setRet(eFAIL)
			return nil
		}
		chargeCopy(len(buf))
		setRet(a2)
	case SysOpen:
		name, err := p.readCString(a0)
		if err != nil {
			setRet(eFAIL)
			return nil
		}
		k.fsMu.Lock()
		if _, ok := k.fs[name]; !ok {
			k.fs[name] = nil
		}
		k.fsMu.Unlock()
		fd := p.nextFD
		p.nextFD++
		p.files[fd] = &openFile{name: name}
		setRet(uint64(fd))
	case SysClose:
		delete(p.files, int(a0))
		setRet(0)
	case SysMmap:
		perm := permFromProt(a2)
		base, err := p.AS.Mmap(a1, perm)
		if err != nil {
			setRet(eFAIL)
			return nil
		}
		setRet(base)
	case SysMprotect:
		if err := p.AS.Mprotect(a0, permFromProt(a2)); err != nil {
			setRet(eFAIL)
			return nil
		}
		setRet(0)
	case SysSigaction:
		p.SignalHandlers[a0] = a1
		setRet(0)
	case SysSigreturn:
		// Restore the full register context from the signal frame at SP:
		// 16 GPRs, then PC, then flags — total control if forged (SROP).
		return k.sigreturn(p, c)
	case SysGetpid:
		setRet(uint64(p.PID))
	case SysGettid:
		if t != nil {
			setRet(uint64(t.TID))
		} else {
			setRet(uint64(p.PID))
		}
	case SysClone:
		// a0 = entry point, a1 = stack top, a2 = argument (landed in the
		// new thread's R0). Returns the new TID to the caller; the thread
		// joins the multicore rotation at the next sweep.
		if a0 == 0 || a1 == 0 {
			setRet(eFAIL)
			return nil
		}
		nt := k.newThread(p, a0, a1, a2)
		setRet(uint64(nt.TID))
	case SysKill:
		target := int(int64(a0))
		sig := a1
		if target == p.PID || target == 0 {
			// Self-signal: delivered immediately, at the point where kill
			// would have returned — the interrupted context the frame
			// saves is the instruction after the syscall, with kill's own
			// return value already in R0.
			if sig == SIGKILL {
				k.Kill(p, SIGKILL)
				return ErrKilled
			}
			h, ok := p.SignalHandlers[sig]
			if !ok {
				setRet(0) // no handler registered: ignored
				return nil
			}
			ct := t
			if ct == nil {
				ct = p.mainThread()
			}
			setRet(0)
			if err := k.deliverSignal(p, ct, sig, h); err != nil {
				return err
			}
			if p.Killed {
				return ErrKilled
			}
			return nil
		}
		// Cross-process: queue on the target; the multicore scheduler
		// delivers at the target's next slice boundary (under other
		// schedulers the signal stays pending). Queueing rather than
		// mutating the target keeps delivery deterministic and race-free.
		tp := k.findProc(target)
		if tp == nil {
			setRet(eFAIL)
			return nil
		}
		tp.sigMu.Lock()
		tp.pendingSigs = append(tp.pendingSigs, sig)
		tp.sigMu.Unlock()
		setRet(0)
	case SysFork:
		child, err := k.Fork(p)
		if err != nil {
			setRet(eFAIL)
			return nil
		}
		if k.OnFork != nil {
			if ferr := k.OnFork(p, child); ferr != nil {
				// The module could not inherit protection: a child that
				// would run unprotected must not run at all.
				k.forkMu.Lock()
				delete(k.procs, child.PID)
				k.forkMu.Unlock()
				setRet(eFAIL)
				return nil
			}
		}
		// Child resumes at the same PC with fork's child-side return
		// value; it is queued for the scheduler (TakeForked /
		// RunMulticore pickup) only once protection is inherited.
		child.CPU.Regs[isa.R0] = 0
		k.forkMu.Lock()
		k.forked = append(k.forked, child)
		k.forkMu.Unlock()
		setRet(uint64(child.PID))
	case SysExecve:
		path, err := p.readCString(a0)
		if err != nil {
			path = fmt.Sprintf("<bad ptr %#x>", a0)
		}
		p.Execves = append(p.Execves, ExecveRecord{Path: path, PC: c.PC})
		setRet(0)
	case SysExit:
		if t != nil && t.TID != p.PID {
			// A non-main thread's exit terminates only that thread; the
			// scheduler drops it from the rotation and the process lives.
			return ErrExited
		}
		p.Exited = true
		p.ExitCode = int(int64(a0))
		return ErrExited
	case SysGettimeofday:
		if err := p.AS.WriteU64(a0, atomic.LoadUint64(&k.clock)); err != nil {
			setRet(eFAIL)
			return nil
		}
		setRet(0)
	default:
		setRet(eFAIL)
	}
	if p.Killed {
		return ErrKilled
	}
	return nil
}

// SigFrameWords is the size of a sigreturn frame in 64-bit words:
// 16 registers, PC, flags.
const SigFrameWords = 18

func (k *Kernel) sigreturn(p *Process, c *cpu.CPU) error {
	resume := c.PC // the instruction after the sigreturn syscall
	sp := c.Regs[isa.SP]
	var frame [SigFrameWords]uint64
	for i := range frame {
		v, err := p.AS.ReadU64(sp + uint64(i)*8)
		if err != nil {
			k.Kill(p, SIGSEGV)
			return ErrKilled
		}
		frame[i] = v
	}
	for i := 0; i < isa.NumRegs; i++ {
		c.Regs[i] = frame[i]
	}
	c.PC = frame[16]
	c.FlagZ = frame[17]&1 != 0
	c.FlagN = frame[17]&2 != 0
	if k.OnAsyncFlow != nil {
		// The kernel teleports the flow from the handler's tail back to
		// the interrupted context — the trace unit's second async edge.
		k.OnAsyncFlow(p, resume, c.PC)
	}
	if p.Killed {
		return ErrKilled
	}
	return nil
}

func (p *Process) readCString(addr uint64) (string, error) {
	var out []byte
	for i := 0; i < 4096; i++ {
		b, err := p.AS.ReadU8(addr + uint64(i))
		if err != nil {
			return "", err
		}
		if b == 0 {
			return string(out), nil
		}
		out = append(out, b)
	}
	return "", errors.New("kernelsim: unterminated string")
}

// prot bits for mmap/mprotect (PROT_READ/WRITE/EXEC).
const (
	ProtRead  = 1
	ProtWrite = 2
	ProtExec  = 4
)

func permFromProt(prot uint64) module.Perm {
	var perm module.Perm
	if prot&ProtRead != 0 {
		perm |= module.PermR
	}
	if prot&ProtWrite != 0 {
		perm |= module.PermW
	}
	if prot&ProtExec != 0 {
		perm |= module.PermX
	}
	return perm
}

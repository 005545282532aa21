package kernelsim

// Preemptive multi-core scheduling: time-sliced interleaving of
// processes and intra-process threads across simulated cores, plus the
// signal-delivery machinery that interrupts a traced flow mid-window.
// The scheduler is a deterministic serial interleaving — task i always
// runs its slice on core i%cores, sweeps visit tasks in creation order —
// so two runs over the same inputs produce byte-identical per-core trace
// streams, which is what the demux round-trip property and the
// differential oracle verify against.

import (
	"errors"
	"fmt"

	"flowguard/internal/cpu"
	"flowguard/internal/isa"
)

// Thread is one schedulable execution context within a process: private
// registers, stack pointer, and flags (its own cpu.CPU over the shared
// address space). The main thread reuses the process's CPU and PID as
// its TID, Linux-style; clone-created threads get fresh TIDs.
type Thread struct {
	TID  int
	CPU  *cpu.CPU
	proc *Process
}

// CurrentThread returns the thread whose slice is executing: set by the
// multicore scheduler before each slice, defaulting to the main thread
// under the single-threaded schedulers.
func (p *Process) CurrentThread() *Thread {
	if p.curThread != nil {
		return p.curThread
	}
	return p.mainThread()
}

// mainThread returns the process's first thread, synthesizing one
// around the process CPU for hand-built processes that bypassed Spawn.
func (p *Process) mainThread() *Thread {
	if len(p.Threads) == 0 {
		if p.CPU == nil {
			return nil
		}
		p.Threads = []*Thread{{TID: p.PID, CPU: p.CPU, proc: p}}
	}
	return p.Threads[0]
}

// newThread services clone: a fresh CPU over the shared address space,
// entered at entry with the given stack top and argument. The thread is
// queued for TakeCloned / RunMulticore pickup.
func (k *Kernel) newThread(p *Process, entry, stack, arg uint64) *Thread {
	c := cpu.New(p.AS)
	c.PC = entry
	c.Regs[isa.SP] = stack
	c.Regs[isa.R0] = arg
	k.forkMu.Lock()
	if k.nextTID == 0 {
		k.nextTID = 20000
	}
	tid := k.nextTID
	k.nextTID++
	k.forkMu.Unlock()
	t := &Thread{TID: tid, CPU: c, proc: p}
	c.Sys = &procSyscalls{k: k, p: p, t: t}
	p.sigMu.Lock()
	p.Threads = append(p.Threads, t)
	p.sigMu.Unlock()
	k.forkMu.Lock()
	k.cloned = append(k.cloned, t)
	k.forkMu.Unlock()
	return t
}

// deliverSignal interrupts a thread with a signal: the full register
// context (16 GPRs, PC, flags — the sigreturn frame) is pushed below
// the thread's stack pointer, then execution is redirected into the
// registered handler with the signal number in R0. The redirect is a
// kernel-performed transfer the CPU never retires, so it surfaces to
// the tracer only through OnAsyncFlow (FUP+TIP in the stream). A stack
// that cannot hold the frame is a segfault, as on real hardware.
func (k *Kernel) deliverSignal(p *Process, t *Thread, signo, handler uint64) error {
	c := t.CPU
	resume := c.PC
	newSP := c.Regs[isa.SP] - SigFrameWords*8
	for i := 0; i < isa.NumRegs; i++ {
		if err := p.AS.WriteU64(newSP+uint64(i)*8, c.Regs[i]); err != nil {
			k.Kill(p, SIGSEGV)
			return ErrKilled
		}
	}
	var flags uint64
	if c.FlagZ {
		flags |= 1
	}
	if c.FlagN {
		flags |= 2
	}
	if err := p.AS.WriteU64(newSP+16*8, c.PC); err != nil {
		k.Kill(p, SIGSEGV)
		return ErrKilled
	}
	if err := p.AS.WriteU64(newSP+17*8, flags); err != nil {
		k.Kill(p, SIGSEGV)
		return ErrKilled
	}
	c.Regs[isa.SP] = newSP
	c.Regs[isa.R0] = signo
	c.PC = handler
	if k.OnAsyncFlow != nil {
		k.OnAsyncFlow(p, resume, handler)
	}
	return nil
}

// deliverPending drains the process's cross-process signal queue onto
// the thread about to run its slice. SIGKILL is fatal without delivery;
// signals without a registered handler are ignored.
func (k *Kernel) deliverPending(p *Process, t *Thread) error {
	p.sigMu.Lock()
	sigs := p.pendingSigs
	p.pendingSigs = nil
	p.sigMu.Unlock()
	for _, sig := range sigs {
		if sig == SIGKILL {
			k.Kill(p, SIGKILL)
			return ErrKilled
		}
		h, ok := p.SignalHandlers[sig]
		if !ok {
			continue
		}
		if err := k.deliverSignal(p, t, sig, h); err != nil {
			return err
		}
	}
	return nil
}

// task is one schedulable (process, thread) pair in the multicore
// rotation.
type task struct {
	p *Process
	t *Thread
}

// RunMulticore schedules every thread of every process round-robin
// across the given number of simulated cores with the given instruction
// quantum, until all tasks have stopped or the total budget (0 =
// unlimited) is exhausted. Task i always runs on core i%cores; the
// interleaving is serial and deterministic, modeling what a real
// multi-core trace capture serializes into per-core streams.
//
// At each slice start the scheduler fires OnCoreSwitch (where the
// kernel module reprograms the core's trace unit and emits the PIP/MODE
// context-switch marker) and then delivers any pending cross-process
// signals onto the thread about to run. Forked children and cloned
// threads join the rotation at the next sweep. Statuses are reported
// per process: initial indices preserved, forked children appended, so
// callers that forked may receive a longer status slice than they
// passed in.
//
// With cores = 1 this is the paper's single-core multi-process scenario:
// one trace unit, one CR3 filter, many address spaces (§6 suggestion 2
// exists because this is limiting).
func (k *Kernel) RunMulticore(procs []*Process, cores int, quantum, maxTotal uint64) ([]ExitStatus, error) {
	if cores < 1 {
		cores = 1
	}
	procs = append([]*Process(nil), procs...)
	statuses := make([]ExitStatus, len(procs))
	procIdx := make(map[*Process]int, len(procs))
	procDone := make([]bool, len(procs))
	var tasks []task
	threadDone := make(map[*Thread]bool)
	for i, p := range procs {
		procIdx[p] = i
		if t := p.mainThread(); t != nil {
			tasks = append(tasks, task{p, t})
		} else {
			procDone[i] = true
		}
	}
	var total uint64
	for {
		// Pick up forked children and cloned threads created since the
		// last sweep; threads of an already-stopped process never run.
		for _, cp := range k.TakeForked() {
			procIdx[cp] = len(procs)
			procs = append(procs, cp)
			statuses = append(statuses, ExitStatus{})
			procDone = append(procDone, false)
			tasks = append(tasks, task{cp, cp.mainThread()})
		}
		for _, nt := range k.TakeCloned() {
			if idx, ok := procIdx[nt.proc]; !ok || procDone[idx] {
				continue
			}
			tasks = append(tasks, task{nt.proc, nt})
		}
		live := 0
		for _, tk := range tasks {
			if !threadDone[tk.t] && !procDone[procIdx[tk.p]] {
				live++
			}
		}
		if live == 0 {
			return statuses, nil
		}
		for i := range tasks {
			tk := tasks[i]
			pi := procIdx[tk.p]
			if threadDone[tk.t] || procDone[pi] {
				continue
			}
			core := i % cores
			tk.p.curThread = tk.t
			if k.OnCoreSwitch != nil {
				k.OnCoreSwitch(core, tk.p, tk.t)
			}
			err := k.deliverPending(tk.p, tk.t)
			if err == nil {
				for n := uint64(0); n < quantum; n++ {
					if err = tk.t.CPU.Step(); err != nil {
						break
					}
					total++
					if maxTotal > 0 && total >= maxTotal {
						return statuses, fmt.Errorf("kernelsim: multicore budget %d exhausted", maxTotal)
					}
				}
			}
			if err == nil {
				continue
			}
			if tk.t.TID != tk.p.PID && !tk.p.Exited &&
				(errors.Is(err, ErrExited) || errors.Is(err, cpu.ErrHalted)) {
				// A non-main thread ran off the end of its start routine
				// or called exit: only that thread leaves the rotation.
				threadDone[tk.t] = true
				continue
			}
			threadDone[tk.t] = true
			st, cerr := k.classify(tk.p, err)
			if cerr != nil {
				return statuses, cerr
			}
			statuses[pi] = st
			procDone[pi] = true // process teardown stops its other threads
		}
	}
}

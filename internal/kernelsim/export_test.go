package kernelsim

import (
	"errors"
	"fmt"

	"flowguard/internal/cpu"
)

// RunMulticoreStepwise is RunMulticore with its quantum loop as it was
// before slices ran through cpu.CPU.Retire: one Step per instruction,
// the total budget checked after each. The multicore differential test
// runs it as the reference for the preemption points.
func (k *Kernel) RunMulticoreStepwise(procs []*Process, cores int, quantum, maxTotal uint64) ([]ExitStatus, error) {
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

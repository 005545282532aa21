package kernelsim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
)

// coreSwitch is what one OnCoreSwitch saw: the slice's core, process and
// thread, and where the thread's CPU stood.
type coreSwitch struct {
	core, pid, tid int
	instrs, pc     uint64
}

// multicoreRun is everything a RunMulticore call leaves observable.
type multicoreRun struct {
	switches []coreSwitch
	threads  map[int]*kernelsim.Thread // every thread that ran, by TID
	procs    []*kernelsim.Process      // the spawned processes, then forked children
	statuses []kernelsim.ExitStatus
	err      error
}

// runMulticore spawns the processes in a fresh kernel and schedules them
// with RunMulticore, or with the per-Step reference loop when stepwise
// is set.
func runMulticore(t *testing.T, spawn func(*kernelsim.Kernel) []*kernelsim.Process, stepwise bool, cores int, quantum, maxTotal uint64) *multicoreRun {
	t.Helper()
	k := kernelsim.New()
	r := &multicoreRun{threads: map[int]*kernelsim.Thread{}, procs: spawn(k)}
	k.OnCoreSwitch = func(core int, p *kernelsim.Process, th *kernelsim.Thread) {
		r.switches = append(r.switches, coreSwitch{core, p.PID, th.TID, th.CPU.Instrs, th.CPU.PC})
		r.threads[th.TID] = th
	}
	k.OnFork = func(_, child *kernelsim.Process) error {
		r.procs = append(r.procs, child)
		return nil
	}
	run := k.RunMulticore
	if stepwise {
		run = k.RunMulticoreStepwise
	}
	r.statuses, r.err = run(append([]*kernelsim.Process(nil), r.procs...), cores, quantum, maxTotal)
	return r
}

// instrs returns the instructions every thread of the run retired.
func (r *multicoreRun) instrs() uint64 {
	var n uint64
	for _, th := range r.threads {
		n += th.CPU.Instrs
	}
	return n
}

// sameMulticoreRun fails the test unless two runs preempted at the same
// instructions: the same core switches, statuses, stdout and error, and
// every thread stopped at the same instruction count and PC.
func sameMulticoreRun(t *testing.T, what string, got, want *multicoreRun) {
	t.Helper()
	if !reflect.DeepEqual(got.switches, want.switches) {
		i := 0
		for i < len(got.switches) && i < len(want.switches) && got.switches[i] == want.switches[i] {
			i++
		}
		t.Fatalf("%s: %d core switches, reference %d; they differ from switch %d on", what, len(got.switches), len(want.switches), i)
	}
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		t.Fatalf("%s: error %v, reference %v", what, got.err, want.err)
	}
	if !reflect.DeepEqual(got.statuses, want.statuses) {
		t.Fatalf("%s: statuses %v, reference %v", what, got.statuses, want.statuses)
	}
	if len(got.procs) != len(want.procs) {
		t.Fatalf("%s: %d processes, reference %d", what, len(got.procs), len(want.procs))
	}
	for i := range got.procs {
		if !bytes.Equal(got.procs[i].Stdout, want.procs[i].Stdout) {
			t.Fatalf("%s: process %d stdout %q, reference %q", what, i, got.procs[i].Stdout, want.procs[i].Stdout)
		}
	}
	for tid, th := range want.threads {
		g := got.threads[tid]
		if g == nil || g.CPU.Instrs != th.CPU.Instrs || g.CPU.PC != th.CPU.PC {
			t.Fatalf("%s: thread %d stopped differently from the reference (at instrs=%d pc=%#x)", what, tid, th.CPU.Instrs, th.CPU.PC)
		}
	}
}

// TestRunMulticorePreemptsAsStepwise runs the multicore-preempt set
// (signald, threadd and nginx together), a cloning and a forking process
// through RunMulticore and through the per-Step reference loop, at
// several quanta and total budgets, including budgets that run out in
// the middle of a slice.
func TestRunMulticorePreemptsAsStepwise(t *testing.T) {
	type workload struct {
		name   string
		cores  int
		quanta []uint64
		spawn  func(*kernelsim.Kernel) []*kernelsim.Process
	}
	spawner := func(mods ...func(*kernelsim.Kernel) (*kernelsim.Process, error)) func(*kernelsim.Kernel) []*kernelsim.Process {
		return func(k *kernelsim.Kernel) []*kernelsim.Process {
			var ps []*kernelsim.Process
			for _, m := range mods {
				p, err := m(k)
				if err != nil {
					t.Fatal(err)
				}
				ps = append(ps, p)
			}
			return ps
		}
	}
	var set []func(*kernelsim.Kernel) (*kernelsim.Process, error)
	for _, a := range []*apps.App{apps.Signald(), apps.Threadd(), apps.Nginx()} {
		in := a.MakeInput(2, 7)
		if a.Name == "signald" {
			in = append([]byte("aSbS"), in...)
		}
		set = append(set, func(k *kernelsim.Kernel) (*kernelsim.Process, error) { return a.Spawn(k, in) })
	}
	clone, fork := cloneServer(t, 6, 5), forkSidesModule(t)
	workloads := []workload{
		{"multicore-preempt", 2, []uint64{7, 61, 400}, spawner(set...)},
		{"clone", 2, []uint64{1, 5, 30}, spawner(func(k *kernelsim.Kernel) (*kernelsim.Process, error) {
			return k.Spawn("tserv", clone, nil, nil, nil)
		})},
		{"fork", 1, []uint64{1, 3, 30}, spawner(func(k *kernelsim.Kernel) (*kernelsim.Process, error) {
			return k.Spawn("forker", fork, nil, nil, nil)
		})},
	}
	for _, w := range workloads {
		for _, q := range w.quanta {
			what := fmt.Sprintf("%s/q=%d", w.name, q)
			want := runMulticore(t, w.spawn, true, w.cores, q, 0)
			if want.err != nil {
				t.Fatalf("%s: reference: %v", what, want.err)
			}
			sameMulticoreRun(t, what, runMulticore(t, w.spawn, false, w.cores, q, 0), want)
			total := want.instrs()
			for _, budget := range []uint64{1, q - 1, q, q + 1, total / 3, total/2 + 1, total - 1, total, total + 1} {
				if budget == 0 {
					continue
				}
				what := fmt.Sprintf("%s/max=%d", what, budget)
				sameMulticoreRun(t, what, runMulticore(t, w.spawn, false, w.cores, q, budget),
					runMulticore(t, w.spawn, true, w.cores, q, budget))
			}
		}
	}
}

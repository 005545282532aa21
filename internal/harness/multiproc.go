package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// MultiProcResult quantifies the §7.2.4 observation that "single-process
// applications outperform multi-process ones due to the single CR3
// filtering mechanism": on a shared core, a worker filtered by its CR3
// pays only for its own trace, while a multi-process service that one
// filter cannot cover must trace everything.
type MultiProcResult struct {
	// FilteredBytes is the trace volume with the CR3 filter tracking the
	// protected worker across context switches.
	FilteredBytes uint64
	// UnfilteredBytes is the volume when the filter cannot single out a
	// process (the multi-process case).
	UnfilteredBytes uint64
	// FilteredPct / UnfilteredPct are the tracing overheads against the
	// combined baseline cycles.
	FilteredPct, UnfilteredPct float64
	// Workers is the number of interleaved processes.
	Workers int
}

func (m MultiProcResult) String() string {
	return fmt.Sprintf("workers=%d  filtered: %d bytes (%.2f%%)  unfiltered: %d bytes (%.2f%%)  ratio=%.1fx",
		m.Workers, m.FilteredBytes, m.FilteredPct, m.UnfilteredBytes, m.UnfilteredPct,
		float64(m.UnfilteredBytes)/float64(maxU64(m.FilteredBytes, 1)))
}

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// MultiProc interleaves `workers` nginx-analogue processes on one core
// and compares CR3-filtered against unfiltered tracing cost.
func (r *Runner) MultiProc(workers int) (MultiProcResult, error) {
	if workers < 2 {
		workers = 2
	}
	res := MultiProcResult{Workers: workers}

	run := func(filter bool) (bytes uint64, baseCycles uint64, err error) {
		a := apps.Nginx()
		k := kernelsim.New()
		procs := make([]*kernelsim.Process, workers)
		for i := range procs {
			p, err := a.Spawn(k, a.MakeInput(r.Scale, r.Seed)) // identical workers isolate the filtering effect
			if err != nil {
				return 0, 0, err
			}
			procs[i] = p
		}
		tr := ipt.NewTracer(ipt.NewToPA(256 << 20))
		ctl := ctlTrace
		if filter {
			ctl |= ipt.CtlCR3Filter
		}
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl); err != nil {
			return 0, 0, err
		}
		if filter {
			if err := tr.WriteMSR(ipt.MSRRTITCR3Match, procs[0].CR3); err != nil {
				return 0, 0, err
			}
		}
		for _, p := range procs {
			if p.CPU.Branch != nil {
				p.CPU.Branch = trace.MultiSink{p.CPU.Branch, tr}
			} else {
				p.CPU.Branch = tr
			}
		}
		k.OnCoreSwitch = func(_ int, p *kernelsim.Process, _ *kernelsim.Thread) { tr.SetCR3(p.CR3) }
		sts, err := k.RunMulticore(procs, 1, 1024, 2_000_000_000)
		if err != nil {
			return 0, 0, err
		}
		for i, st := range sts {
			if !st.Exited {
				return 0, 0, fmt.Errorf("harness: multiproc worker %d: %v", i, st)
			}
		}
		tr.Flush()
		var cycles uint64
		for _, p := range procs {
			cycles += p.CPU.CycleCount
		}
		return tr.Out.TotalWritten(), cycles, nil
	}

	fb, base, err := run(true)
	if err != nil {
		return res, err
	}
	res.FilteredBytes = fb
	res.FilteredPct = 100 * float64(fb) * ipt.CyclesPerTraceByte / float64(base)

	ub, base2, err := run(false)
	if err != nil {
		return res, err
	}
	res.UnfilteredBytes = ub
	res.UnfilteredPct = 100 * float64(ub) * ipt.CyclesPerTraceByte / float64(base2)
	return res, nil
}

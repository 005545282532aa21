package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/perfstat"
)

// AsyncGateRow is one checking configuration's slice of the
// syscall-blocked-time experiment: the per-run mean wall-clock a
// process spent blocked inside intercepted endpoints, measured by the
// kernel at the interception boundary itself (kernelsim.GateWait), so
// synchronous and asynchronous checking are compared at the exact same
// point the paper's overhead argument is about.
type AsyncGateRow struct {
	Name    string
	Workers int // 0 = synchronous checking
	// Samples holds one value per run: mean ns blocked per intercepted
	// syscall.
	Samples []float64
	// Calls is the intercepted-endpoint count across the runs; Windows
	// and MaxLag aggregate the pipeline's own accounting.
	Calls   uint64
	Windows uint64
	MaxLag  uint64
	// P is the Mann-Whitney p-value of the samples against the
	// synchronous row (1 for the synchronous row itself).
	P float64
	// Met reports whether the row beat the synchronous row: a lower
	// median blocked time with P < 0.05.
	Met bool
}

func (r AsyncGateRow) String() string {
	s := perfstat.Summarize(r.Samples)
	out := fmt.Sprintf("%-9s blocked/call=%7.2fµs (min %.2f, max %.2f, n=%d) calls=%d",
		r.Name, s.Median/1e3, s.Min/1e3, s.Max/1e3, len(r.Samples), r.Calls)
	if r.Workers > 0 {
		met := "met"
		if !r.Met {
			met = "not met"
		}
		out += fmt.Sprintf(" windows=%d maxlag=%d p=%.4g %s", r.Windows, r.MaxLag, r.P, met)
	}
	return out
}

// AsyncGate runs a benign trace-dense workload n times per checking
// configuration — synchronous, then the asynchronous pipeline with 1
// and 4 workers — each run on a fresh kernel, and reports the measured
// syscall-blocked time with Mann-Whitney significance against the
// synchronous baseline. Every run must exit cleanly: the pipeline's
// transparency contract means asynchrony may only move the decode off
// the critical path, never change a verdict.
//
// The workload is the transcoded daemon: per frame, an
// indirect-call-dense compute burst (h264ref's dispatch shape) floods
// more than a ToPA region of trace, then one write endpoint fires — so
// the synchronous gate pays the accumulated decode at every frame
// boundary while the pipeline's workers have already drained it region
// by region, and the per-call blocked time averages over every frame of
// the run.
func (r *Runner) AsyncGate(n int) ([]AsyncGateRow, error) {
	a := apps.Transcoded()
	an, err := r.Analyze(a)
	if err != nil {
		return nil, err
	}
	if err := r.Train(an); err != nil {
		return nil, err
	}
	// The pipeline only engages when trace actually fills ToPA regions;
	// a floor on the iteration count keeps small -scale values from
	// turning the async rows into a no-op comparison.
	scale := r.Scale
	if scale < 30 {
		scale = 30
	}

	rows := []AsyncGateRow{
		{Name: "sync"},
		{Name: "async-w1", Workers: 1},
		{Name: "async-w4", Workers: 4},
	}
	for ri := range rows {
		row := &rows[ri]
		for i := 0; i < n; i++ {
			input := a.MakeInput(scale, r.Seed+int64(i))
			k := kernelsim.New()
			p, err := a.Spawn(k, input)
			if err != nil {
				return nil, err
			}
			km := guard.InstallModule(k)
			pol := r.policy()
			if row.Workers > 0 {
				pol.Async = true
				pol.AsyncWorkers = row.Workers
			}
			g, err := km.Protect(p, an.OCFG, an.ITC, pol)
			if err != nil {
				return nil, err
			}
			st, err := k.Run(p, 500_000_000)
			km.Shutdown()
			if err != nil {
				return nil, err
			}
			if !st.Exited {
				return nil, fmt.Errorf("harness: async-gate %s run %d: benign workload did not exit (%v)", row.Name, i, st)
			}
			gate, calls := k.GateWait()
			if calls == 0 {
				return nil, fmt.Errorf("harness: async-gate %s run %d: no intercepted endpoints", row.Name, i)
			}
			row.Samples = append(row.Samples, float64(gate.Nanoseconds())/float64(calls))
			row.Calls += calls
			row.Windows += g.Stats.AsyncWindows
			if g.Stats.AsyncMaxLag > row.MaxLag {
				row.MaxLag = g.Stats.AsyncMaxLag
			}
		}
	}
	for ri := range rows {
		if rows[ri].Workers == 0 {
			rows[ri].P = 1
			continue
		}
		if rows[ri].Windows == 0 {
			return nil, fmt.Errorf("harness: async-gate %s captured no pipeline windows; the workload never filled a trace region", rows[ri].Name)
		}
		_, p := perfstat.MannWhitneyU(rows[0].Samples, rows[ri].Samples)
		rows[ri].P = p
		rows[ri].Met = p < 0.05 &&
			perfstat.Summarize(rows[ri].Samples).Median < perfstat.Summarize(rows[0].Samples).Median
	}
	return rows, nil
}

// Package harness drives the paper's evaluation (§7): it reproduces every
// table and figure — Table 1 (tracing mechanisms), Table 4 (CFG statistics
// and AIA), Table 5 (memory and CFG generation time), Figure 5(a)-(c)
// (runtime overhead with the trace/decode/check/other breakdown), Figure
// 5(d) (fuzzing training dynamics), the §7.2.2 micro-benchmarks, the
// §7.1.2 attack matrix, the §7.1.1 parameter analysis and the §7.2.4
// hardware-extension ablation.
//
// Overheads are reported from the calibrated cycle model (see
// EXPERIMENTS.md): the protected process retires exactly the same
// instruction stream as the baseline, so the overhead is the metered
// tracing/decoding/checking work divided by the baseline execution
// cycles, mirroring how the paper attributes its Figure 5 components.
package harness

import (
	"errors"
	"fmt"
	"math"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// Runner fixes the experiment parameters.
type Runner struct {
	// Scale sizes each workload (requests, archive entries, kernel
	// iterations); the paper's runs are minutes long, the default here
	// keeps a full reproduction in seconds.
	Scale int
	// Seed drives workload generation.
	Seed int64
	// TrainRuns is the number of differently-seeded training replays
	// per application.
	TrainRuns int
	// Policy is the protection configuration (DefaultPolicy if zero).
	Policy guard.Policy
}

// NewRunner returns the default experiment configuration.
func NewRunner() *Runner {
	return &Runner{Scale: 30, Seed: 1, TrainRuns: 6, Policy: guard.DefaultPolicy()}
}

const ctlTrace = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// Analysis bundles the offline phase outputs for one application.
type Analysis struct {
	App     *apps.App
	OCFG    *cfg.Graph
	ITC     *itc.Graph
	GenTime time.Duration
	// LibShare is the fraction of analyzed basic blocks living in
	// shared libraries (the paper: >90% of generation time is spent on
	// libraries, so caching their CFGs amortizes the cost).
	LibShare float64
}

// Analyze runs static CFG generation and ITC reconstruction.
func (r *Runner) Analyze(a *apps.App) (*Analysis, error) {
	as, err := a.Load()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	g, err := cfg.Build(as)
	if err != nil {
		return nil, err
	}
	ig := itc.FromCFG(g)
	gen := time.Since(start)
	st := g.ComputeStats()
	libShare := 0.0
	if st.ExecBlocks+st.LibBlocks > 0 {
		libShare = float64(st.LibBlocks) / float64(st.ExecBlocks+st.LibBlocks)
	}
	return &Analysis{App: a, OCFG: g, ITC: ig, GenTime: gen, LibShare: libShare}, nil
}

// Train replays TrainRuns differently-seeded workloads under the IPT
// model and labels the ITC-CFG (§4.3 step 3 without the fuzzing stage;
// TrainWithFuzzer adds it).
func (r *Runner) Train(an *Analysis) error {
	for i := 0; i < r.TrainRuns; i++ {
		input := an.App.MakeInput(r.Scale, r.Seed+int64(100+i))
		raw, err := r.traceBytes(an.App, input)
		if err != nil {
			return err
		}
		if err := observeTrace(an.ITC, raw); err != nil {
			return err
		}
	}
	an.ITC.RebuildCache()
	return nil
}

// observeTrace labels the ITC-CFG with every TIP pair of a raw trace
// stream, decoded as one window.
func observeTrace(ig *itc.Graph, raw []byte) error {
	evs, err := ipt.DecodeFast(raw)
	if err != nil {
		return err
	}
	ig.ObserveWindow(ipt.ExtractTIPs(evs))
	return nil
}

// traceBytes executes the app on input with IPT attached and returns the
// raw trace stream (the differential oracle trains both pipelines from
// the identical bytes).
func (r *Runner) traceBytes(a *apps.App, input []byte) ([]byte, error) {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	tr := ipt.NewTracer(ipt.NewToPA(64 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, err
	}
	p.CPU.Branch = tr
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	if !st.Exited {
		return nil, fmt.Errorf("harness: training run of %s: %v", a.Name, st)
	}
	tr.Flush()
	return tr.Out.Snapshot(), nil
}

// Baseline runs the app unprotected and untraced, returning execution
// cycles and instruction count.
func (r *Runner) Baseline(a *apps.App, input []byte) (cycles, instrs uint64, err error) {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		return 0, 0, err
	}
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return 0, 0, err
	}
	if !st.Exited {
		return 0, 0, fmt.Errorf("harness: baseline of %s: %v", a.Name, st)
	}
	return p.CPU.CycleCount, p.CPU.Instrs, nil
}

// ProtectedRun is the outcome of one run under full FlowGuard
// protection.
type ProtectedRun struct {
	BaseCycles uint64
	// Component cycle meters.
	TraceCycles  uint64
	DecodeCycles uint64
	CheckCycles  uint64
	OtherCycles  uint64
	SlowCycles   uint64
	Stats        guard.Stats
	Killed       bool
	Reports      []guard.ViolationReport
	WallTime     time.Duration
}

// OverheadPct returns the total overhead percentage against the
// baseline execution cycles.
func (pr *ProtectedRun) OverheadPct() float64 {
	if pr.BaseCycles == 0 {
		return 0
	}
	extra := pr.TraceCycles + pr.DecodeCycles + pr.CheckCycles + pr.OtherCycles + pr.SlowCycles
	return 100 * float64(extra) / float64(pr.BaseCycles)
}

// ComponentPct returns the (trace, decode, check, other) shares in
// percent of baseline; the slow path is folded into "check" as the paper
// does (it is part of checking work at the endpoint).
func (pr *ProtectedRun) ComponentPct() (trace, decode, check, other float64) {
	if pr.BaseCycles == 0 {
		return
	}
	b := float64(pr.BaseCycles)
	return 100 * float64(pr.TraceCycles) / b,
		100 * float64(pr.DecodeCycles) / b,
		100 * float64(pr.CheckCycles+pr.SlowCycles) / b,
		100 * float64(pr.OtherCycles) / b
}

// RunProtected executes the app on input under the trained guard.
func (r *Runner) RunProtected(an *Analysis, input []byte, pol guard.Policy) (*ProtectedRun, error) {
	k := kernelsim.New()
	p, err := an.App.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	km := guard.InstallModule(k)
	g, err := km.Protect(p, an.OCFG, an.ITC, pol)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := k.Run(p, 500_000_000)
	km.Shutdown() // close any module-owned async pool, flush pipeline counters
	if err != nil {
		return nil, err
	}
	if !st.Exited && !st.Killed {
		return nil, errors.New("harness: protected run did not finish")
	}
	return &ProtectedRun{
		BaseCycles:   p.CPU.CycleCount,
		TraceCycles:  g.Tracer.Cycles(),
		DecodeCycles: g.Stats.DecodeCycles,
		CheckCycles:  g.Stats.CheckCycles,
		OtherCycles:  g.Stats.OtherCycles,
		SlowCycles:   g.Stats.SlowCycles,
		Stats:        g.Stats,
		Killed:       st.Killed,
		Reports:      km.Reports,
		WallTime:     time.Since(start),
	}, nil
}

// geomean of positive values; zeros contribute as tiny positives so a
// zero-overhead app does not zero the whole mean.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, x := range xs {
		if x < 1e-9 {
			x = 1e-9
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

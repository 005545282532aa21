// Package flowguard is the public API of the FlowGuard reproduction: a
// transparent control-flow-integrity system that checks Intel-Processor-
// Trace-style control-flow traces against an offline-built,
// credit-labeled control-flow graph (Liu et al., "Transparent and
// Efficient CFI Enforcement with Intel Processor Trace", HPCA 2017).
//
// The API mirrors the paper's pipeline:
//
//	w, _  := flowguard.LoadWorkload("nginx")      // a protected binary + libs
//	sys, _ := flowguard.Analyze(w)                // O-CFG -> ITC-CFG (offline)
//	sys.TrainGenerated(8, 30, 1)                  // fuzzing-like training
//	out, _ := sys.Run(w.Input(30, 2))             // protected execution
//	fmt.Println(out.OverheadPct, out.Violations)
//
// Attacks against the deliberately vulnerable server validate
// enforcement:
//
//	v, _   := flowguard.LoadWorkload("vulnd")
//	sys, _ := flowguard.Analyze(v)
//	sys.TrainGenerated(6, 20, 1)
//	payload, _ := flowguard.AttackPayload(flowguard.AttackROP, v)
//	out, _ := sys.Run(payload)                    // out.Killed == true
//
// Everything underneath — the synthetic ISA, the CPU emulator, the IPT
// packet model and decoders, the static analyzer, the fuzzer and the
// kernel model — lives in internal packages; this package is the stable
// surface.
package flowguard

import (
	"fmt"
	"io"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/cfg"
	"flowguard/internal/fuzz"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
	"flowguard/internal/tracerec"
)

// Workload is a protected program: an executable with its shared
// libraries, VDSO and a deterministic input generator.
type Workload struct {
	app *apps.App
}

// Workloads lists the built-in workload names: the four servers of
// Table 4, the four utilities of Figure 5(b), the twelve SPEC-like
// kernels of Figure 5(c), and "vulnd" (the deliberately vulnerable
// server of §7.1.2).
func Workloads() []string {
	var names []string
	for _, a := range apps.All() {
		names = append(names, a.Name)
	}
	return append(names, "vulnd")
}

// LoadWorkload returns a built-in workload by name.
func LoadWorkload(name string) (*Workload, error) {
	a, err := apps.ByName(name)
	if err != nil {
		return nil, err
	}
	return &Workload{app: a}, nil
}

// Name returns the workload name.
func (w *Workload) Name() string { return w.app.Name }

// Category returns "server", "utility" or "spec".
func (w *Workload) Category() string { return w.app.Category }

// Input generates a deterministic stdin workload of roughly linear size
// in scale.
func (w *Workload) Input(scale int, seed int64) []byte {
	return w.app.MakeInput(scale, seed)
}

// DegradedMode selects the guard's fail behavior when a trace window
// cannot be verified — overflow, unattributable gap, grammar-level
// corruption (the §7.1.2 worst cases) — or when per-tenant fairness
// sheds a pooled check.
type DegradedMode uint8

// Degraded-mode policies. The zero value is FailClosed.
const (
	// FailClosed treats any unverifiable window exactly like a detected
	// violation: security preserved, availability sacrificed.
	FailClosed DegradedMode = iota
	// FailOpen lets the endpoint proceed unverified (counted in
	// Outcome.FailOpens); records that survived decoding are still
	// checked best-effort, so definite violations among them fire.
	FailOpen
	// SlowPathRetry re-snapshots the trace buffer and retries a
	// full-precision decode from successive sync points before giving
	// up and failing closed.
	SlowPathRetry
)

func (m DegradedMode) String() string { return guard.DegradedMode(m).String() }

func (m DegradedMode) internal() guard.DegradedMode {
	switch m {
	case FailOpen:
		return guard.FailOpen
	case SlowPathRetry:
		return guard.SlowPathRetry
	default:
		return guard.FailClosed
	}
}

// Policy holds the runtime-protection knobs of §7.1.1.
type Policy struct {
	// PktCount is the minimum number of TIP packets checked per
	// endpoint trigger (the paper's lower bound is 30). The checked
	// window always also spans multiple modules with at least one packet
	// in the executable (§5.3).
	PktCount int
	// CredRatio is the fraction of checked edges that must be credibly
	// trained for the fast path to decide alone; 1.0 sends any
	// low-credit edge to the slow path (the paper's setting). A value
	// above 1 sends every window with a checked pair to the slow path
	// (the naive full-decode strawman of §2).
	CredRatio float64
	// CredMinCount raises the high-credit bar to edges observed at least
	// this many times during training (multi-level credits, §4.3);
	// 0 or 1 is the paper's binary labeling.
	CredMinCount uint32
	// PathSensitive additionally matches trained consecutive-edge pairs
	// (the §7.1.2 future-work extension; stronger, more slow paths).
	PathSensitive bool
	// CheckOnPMI also checks whenever the trace buffer fills — the
	// worst-case endpoint fallback against endpoint-pruning attacks.
	CheckOnPMI bool
	// OnDegraded selects the response to unverifiable trace windows and
	// shed checks; the zero value fails closed.
	OnDegraded DegradedMode
}

// DefaultPolicy returns the configuration the paper evaluates.
func DefaultPolicy() Policy {
	return Policy{PktCount: 30, CredRatio: 1.0}
}

func (p Policy) internal() guard.Policy {
	g := guard.DefaultPolicy()
	if p.PktCount > 0 {
		g.PktCount = p.PktCount
	}
	if p.CredRatio > 0 {
		g.CredRatio = p.CredRatio
	}
	g.CredMinCount = p.CredMinCount
	g.PathSensitive = p.PathSensitive
	g.CheckOnPMI = p.CheckOnPMI
	g.OnDegraded = p.OnDegraded.internal()
	return g
}

// CFGStats summarizes the offline analysis (Table 4's columns).
type CFGStats struct {
	Functions     int
	BasicBlocks   int
	Libraries     int
	OCFGAIA       float64
	ITCNodes      int
	ITCEdges      int
	ITCAIA        float64
	ITCAIAWithTNT float64
	FineAIA       float64
	// CredRatio is the trained fraction of ITC edges.
	CredRatio float64
	// MemoryBytes estimates the labeled graph's resident size.
	MemoryBytes uint64
}

// System is an analyzed (and optionally trained) protection context for
// one workload. It is not safe for concurrent use.
type System struct {
	w    *Workload
	ocfg *cfg.Graph
	ig   *itc.Graph
}

// Analyze runs the offline phase: load the binaries at their (fixed)
// bases, build the conservative O-CFG with the TypeArmor-style analyses,
// and reconstruct the IPT-compatible ITC-CFG (§4.1, §4.2).
func Analyze(w *Workload) (*System, error) {
	as, err := w.app.Load()
	if err != nil {
		return nil, err
	}
	g, err := cfg.Build(as)
	if err != nil {
		return nil, err
	}
	return &System{w: w, ocfg: g, ig: itc.FromCFG(g)}, nil
}

const ctlTrace = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// TrainWithInputs replays the given inputs under the IPT model and
// labels the observed ITC-CFG edges with credits and TNT signatures
// (§4.3 step 3).
func (s *System) TrainWithInputs(inputs ...[]byte) error {
	for _, in := range inputs {
		raw, _, err := tracerec.Record(s.w.app, in, 500_000_000, 64<<20)
		if err != nil {
			return err
		}
		evs, err := ipt.DecodeFast(raw)
		if err != nil {
			return err
		}
		s.ig.ObserveWindow(ipt.ExtractTIPs(evs))
	}
	s.ig.RebuildCache()
	return nil
}

// TrainGenerated trains with `runs` differently-seeded generated
// workloads of the given scale.
func (s *System) TrainGenerated(runs, scale int, seed int64) error {
	var inputs [][]byte
	for i := 0; i < runs; i++ {
		inputs = append(inputs, s.w.Input(scale, seed+int64(i)))
	}
	return s.TrainWithInputs(inputs...)
}

// FuzzStats reports a training campaign (§4.3 steps 1-2).
type FuzzStats struct {
	Execs      int
	CorpusSize int
	Paths      int
}

// TrainWithFuzzer runs an AFL-style coverage-oriented campaign from the
// seed inputs, then replays the resulting corpus as training data — the
// full dynamic-training pipeline of §4.3.
func (s *System) TrainWithFuzzer(execs int, seeds [][]byte) (FuzzStats, error) {
	a := s.w.app
	exec := func(input []byte, cov []byte) error {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			return err
		}
		p.CPU.Branch = fuzz.CoverageSink(cov)
		_, err = k.Run(p, 3_000_000)
		return err
	}
	f := fuzz.New(exec, seeds, fuzz.DefaultConfig())
	f.Run(execs)
	if err := s.TrainWithInputs(f.Corpus()...); err != nil {
		return FuzzStats{}, err
	}
	return FuzzStats{Execs: f.Execs, CorpusSize: len(f.Corpus()), Paths: f.CoveredSlots()}, nil
}

// Stats returns the analysis statistics.
func (s *System) Stats() CFGStats {
	st := s.ocfg.ComputeStats()
	cs := s.ig.Credits()
	return CFGStats{
		Functions:     len(s.ocfg.Funcs),
		BasicBlocks:   st.ExecBlocks + st.LibBlocks,
		Libraries:     st.Libraries,
		OCFGAIA:       st.AIA,
		ITCNodes:      s.ig.NumNodes(),
		ITCEdges:      s.ig.Edges,
		ITCAIA:        s.ig.AIA(),
		ITCAIAWithTNT: s.ig.AIAWithTNT(),
		FineAIA:       itc.FineGrainedAIA(s.ocfg),
		CredRatio:     cs.Ratio,
		MemoryBytes:   s.ig.MemoryBytes(),
	}
}

// Breakdown is the Figure 5 overhead decomposition, in percent of the
// baseline execution cycles.
type Breakdown struct {
	Trace, Decode, Check, Other float64
}

// Outcome describes one protected execution.
type Outcome struct {
	// Exited/ExitCode describe a clean finish; Killed a CFI kill.
	Exited   bool
	ExitCode int
	Killed   bool
	// Violations lists the kernel module's reports.
	Violations []string
	// Stdout is the process output.
	Stdout []byte
	// Checks / SlowChecks count endpoint flow checks.
	Checks, SlowChecks uint64
	// DegradedChecks counts checks resolved under Policy.OnDegraded
	// (damaged trace windows or shed pooled checks); FailOpens and
	// FailClosures split them by outcome, Retries counts SlowPathRetry
	// recovery attempts, and Shed counts pooled checks per-tenant
	// fairness refused — every shed is policy-resolved and lands in one
	// of the other counters, never dropped silently.
	DegradedChecks, FailOpens, FailClosures, Retries, Shed uint64
	// CredRatio is the runtime fraction of credible edges.
	CredRatio float64
	// OverheadPct is the total protection overhead against the same
	// run's execution cycles, per the calibrated cycle model.
	OverheadPct float64
	// Parts decomposes the overhead.
	Parts Breakdown
}

// Run executes the workload on the input under full protection with the
// default policy.
func (s *System) Run(input []byte) (*Outcome, error) {
	return s.RunWithPolicy(input, DefaultPolicy())
}

// RunWithPolicy executes the workload under the given policy.
func (s *System) RunWithPolicy(input []byte, pol Policy) (*Outcome, error) {
	k := kernelsim.New()
	p, err := s.w.app.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	km := guard.InstallModule(k)
	g, err := km.Protect(p, s.ocfg, s.ig, pol.internal())
	if err != nil {
		return nil, err
	}
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	out := newOutcome(st, p, g)
	for _, rep := range km.Reports {
		out.Violations = append(out.Violations, rep.String())
	}
	return out, nil
}

// newOutcome builds one process's Outcome from its exit status and its
// guard's ledger; the caller fills in Violations.
func newOutcome(st kernelsim.ExitStatus, p *kernelsim.Process, g *guard.Guard) *Outcome {
	s := &g.Stats
	out := &Outcome{
		Exited:    st.Exited,
		ExitCode:  st.Code,
		Killed:    st.Killed,
		Stdout:    p.Stdout,
		CredRatio: s.CredRatioRuntime(),
	}
	out.Checks, out.SlowChecks, out.DegradedChecks, out.FailOpens, out.FailClosures, out.Retries, out.Shed = outcomeCounters(s)
	if base := p.CPU.CycleCount; base > 0 {
		b := float64(base)
		out.Parts = Breakdown{
			Trace:  100 * float64(g.Tracer.Cycles()) / b,
			Decode: 100 * float64(s.DecodeCycles) / b,
			Check:  100 * float64(s.CheckCycles+s.SlowCycles) / b,
			Other:  100 * float64(s.OtherCycles) / b,
		}
		out.OverheadPct = out.Parts.Trace + out.Parts.Decode + out.Parts.Check + out.Parts.Other
	}
	return out
}

// outcomeCounters returns the ledger counters Outcome and MultiOutcome
// publish, in their field order.
func outcomeCounters(s *guard.Stats) (checks, slowChecks, degradedChecks, failOpens, failClosures, retries, shed uint64) {
	return s.Checks, s.SlowChecks, s.DegradedChecks, s.FailOpens, s.FailClosures, s.Retries, s.Shed
}

// MultiOutcome describes a multi-process protected run.
type MultiOutcome struct {
	// Outcomes holds one entry per input process, in input order.
	Outcomes []*Outcome
	// Checks / SlowChecks aggregate the per-process flow checks.
	Checks, SlowChecks uint64
	// DegradedChecks, FailOpens, FailClosures, Retries and Shed
	// aggregate the per-process degraded-mode accounting (see Outcome).
	DegradedChecks, FailOpens, FailClosures, Retries, Shed uint64
	// Violations aggregates every kernel-module report.
	Violations []string
	// Elapsed is the wall time of the whole run.
	Elapsed time.Duration
}

// multiQuantum is RunMulti's time slice: the instructions one process
// retires before the scheduler moves on to the next.
const multiQuantum = 10_000

// RunMulti executes one protected process per input, all within a single
// kernel — the paper's §6 multi-core deployment: every process gets its
// own core, trace unit and ToPA table, and the processes share one
// slow-path approval cache, so a clean slow-path verdict in any process
// serves every sibling's fast path. The kernel interleaves the processes
// round-robin in fixed quanta (kernelsim.RunMulticore), so equal inputs
// give equal outcomes run after run.
func (s *System) RunMulti(inputs [][]byte, pol Policy) (*MultiOutcome, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("flowguard: RunMulti needs at least one input")
	}
	k := kernelsim.New()
	km := guard.InstallModule(k)
	shared := guard.NewApprovalCache()
	procs := make([]*kernelsim.Process, len(inputs))
	guards := make([]*guard.Guard, len(inputs))
	for i, in := range inputs {
		p, err := s.w.app.Spawn(k, in)
		if err != nil {
			return nil, err
		}
		g, err := km.Protect(p, s.ocfg, s.ig, pol.internal())
		if err != nil {
			return nil, err
		}
		g.ShareApprovals(shared)
		procs[i], guards[i] = p, g
	}
	t0 := time.Now()
	sts, err := k.RunMulticore(procs, len(procs), multiQuantum, uint64(len(procs))*500_000_000)
	if err != nil {
		return nil, err
	}
	mo := &MultiOutcome{Elapsed: time.Since(t0)}
	reports := km.ReportsSnapshot()
	var agg guard.Stats
	for i, p := range procs {
		o := newOutcome(sts[i], p, guards[i])
		for _, rep := range reports {
			if rep.PID == p.PID {
				o.Violations = append(o.Violations, rep.String())
			}
		}
		mo.Outcomes = append(mo.Outcomes, o)
		agg.Merge(&guards[i].Stats)
	}
	mo.Checks, mo.SlowChecks, mo.DegradedChecks, mo.FailOpens, mo.FailClosures, mo.Retries, mo.Shed = outcomeCounters(&agg)
	for _, rep := range reports {
		mo.Violations = append(mo.Violations, rep.String())
	}
	return mo, nil
}

// RunUnprotected executes the workload with no tracing or checking and
// returns its stdout (for functional comparisons).
func RunUnprotected(w *Workload, input []byte) ([]byte, error) {
	k := kernelsim.New()
	p, err := w.app.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	if !st.Exited {
		return p.Stdout, fmt.Errorf("flowguard: workload %s: %v", w.Name(), st)
	}
	return p.Stdout, nil
}

// SaveTrained writes the labeled ITC-CFG (the offline phase's
// distributable artifact) to w; LoadTrained restores it into an analyzed
// system, replacing any prior training.
func (s *System) SaveTrained(w io.Writer) error { return s.ig.Encode(w) }

// LoadTrained replaces the system's labeled graph with one previously
// written by SaveTrained. The graph must come from the same binaries:
// a shape mismatch with the freshly analyzed graph is rejected.
func (s *System) LoadTrained(r io.Reader) error {
	g, err := itc.Decode(r)
	if err != nil {
		return err
	}
	if g.NumNodes() != s.ig.NumNodes() || g.Edges != s.ig.Edges {
		return fmt.Errorf("flowguard: trained graph does not match the analyzed binaries (|V|=%d/%d |E|=%d/%d)",
			g.NumNodes(), s.ig.NumNodes(), g.Edges, s.ig.Edges)
	}
	s.ig = g
	return nil
}

// AttackKind selects one of the §7.1.2 payload builders.
type AttackKind string

// The implemented attacks.
const (
	AttackROP             AttackKind = "rop"
	AttackSROP            AttackKind = "srop"
	AttackRet2Lib         AttackKind = "ret2lib"
	AttackHistoryFlush    AttackKind = "history-flush"
	AttackEndpointPruning AttackKind = "endpoint-pruning"
)

// AttackPayload builds a hijacking input for the vulnerable server
// workload ("vulnd"). The payload includes benign warm-up traffic
// followed by the overflow request.
func AttackPayload(kind AttackKind, w *Workload) ([]byte, error) {
	as, err := w.app.Load()
	if err != nil {
		return nil, err
	}
	switch kind {
	case AttackROP:
		return attack.BuildROPWrite(as)
	case AttackSROP:
		return attack.BuildSROP(as)
	case AttackRet2Lib:
		return attack.BuildRet2Lib(as)
	case AttackHistoryFlush:
		return attack.BuildHistoryFlush(as, 48)
	case AttackEndpointPruning:
		return attack.BuildEndpointPruning(as)
	default:
		return nil, fmt.Errorf("flowguard: unknown attack %q", kind)
	}
}

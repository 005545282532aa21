package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/fuzz"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/tracerec"
)

// OverheadRow is one bar of Figure 5(a)-(c): the total FlowGuard
// slowdown with its component breakdown.
type OverheadRow struct {
	App       string
	Category  string
	TotalPct  float64
	TracePct  float64
	DecodePct float64
	CheckPct  float64
	OtherPct  float64
	// SlowRate is the fraction of checks that took the slow path (the
	// paper keeps it under 1% after training).
	SlowRate float64
	// CredRatio is the runtime high-credit edge ratio.
	CredRatio float64
	// BaseInstrs sizes the run.
	BaseInstrs uint64
}

func (r OverheadRow) String() string {
	return fmt.Sprintf("%-10s total=%6.2f%%  trace=%.2f%% decode=%.2f%% check=%.2f%% other=%.2f%%  slow-rate=%.3f cred=%.3f",
		r.App, r.TotalPct, r.TracePct, r.DecodePct, r.CheckPct, r.OtherPct, r.SlowRate, r.CredRatio)
}

// overheadFor runs analyze/train/protect for one app and derives its
// overhead row.
func (r *Runner) overheadFor(a *apps.App, pol guard.Policy) (OverheadRow, error) {
	an, err := r.Analyze(a)
	if err != nil {
		return OverheadRow{}, err
	}
	if err := r.Train(an); err != nil {
		return OverheadRow{}, err
	}
	input := a.MakeInput(r.Scale, r.Seed)
	_, instrs, err := r.Baseline(a, input)
	if err != nil {
		return OverheadRow{}, err
	}
	pr, err := r.RunProtected(an, input, pol)
	if err != nil {
		return OverheadRow{}, err
	}
	if pr.Killed {
		return OverheadRow{}, fmt.Errorf("harness: %s killed on benign input: %v", a.Name, pr.Reports)
	}
	tr, de, ch, ot := pr.ComponentPct()
	row := OverheadRow{
		App: a.Name, Category: a.Category,
		TotalPct: pr.OverheadPct(),
		TracePct: tr, DecodePct: de, CheckPct: ch, OtherPct: ot,
		CredRatio:  pr.Stats.CredRatioRuntime(),
		BaseInstrs: instrs,
	}
	if pr.Stats.Checks > 0 {
		row.SlowRate = float64(pr.Stats.SlowChecks) / float64(pr.Stats.Checks)
	}
	return row, nil
}

// figure runs one Figure 5 panel over a set of apps and appends the
// geometric-mean row.
func (r *Runner) figure(list []*apps.App, pol guard.Policy) ([]OverheadRow, error) {
	var rows []OverheadRow
	var totals []float64
	for _, a := range list {
		row, err := r.overheadFor(a, pol)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
		totals = append(totals, row.TotalPct)
	}
	rows = append(rows, OverheadRow{App: "geomean", Category: rows[0].Category, TotalPct: geomean(totals)})
	return rows, nil
}

// Fig5a reproduces Figure 5(a): server overhead with breakdown.
func (r *Runner) Fig5a() ([]OverheadRow, error) {
	return r.figure(apps.Servers(), r.policy())
}

// Fig5b reproduces Figure 5(b): Linux-utility overhead. The utilities
// run once and exit, spawned fork+exec style with the CR3 captured
// before the run (the ptrace(PTRACE_TRACEME) dance of §7.2.1 is the
// Spawn/Protect ordering here).
func (r *Runner) Fig5b() ([]OverheadRow, error) {
	return r.figure(apps.Utilities(), r.policy())
}

// Fig5c reproduces Figure 5(c): SPEC-like kernel overhead; h264ref is
// the expected outlier.
func (r *Runner) Fig5c() ([]OverheadRow, error) {
	return r.figure(apps.SpecApps(), r.policy())
}

func (r *Runner) policy() guard.Policy {
	if r.Policy.PktCount == 0 {
		return guard.DefaultPolicy()
	}
	return r.Policy
}

// Fig5dPoint is one sample of the fuzzing-training curve (Figure 5(d)).
type Fig5dPoint struct {
	// Execs is the fuzzing effort so far (the paper's time axis).
	Execs int
	// Paths is the number of coverage points discovered.
	Paths int
	// QueueLen is the corpus size.
	QueueLen int
	// CredRatio is the runtime high-credit ratio of a guard trained with
	// the corpus at this checkpoint, measured on the reference benign
	// workload.
	CredRatio float64
}

func (p Fig5dPoint) String() string {
	return fmt.Sprintf("execs=%6d paths=%5d corpus=%4d cred-ratio=%.3f", p.Execs, p.Paths, p.QueueLen, p.CredRatio)
}

// Fig5d runs a fuzzing campaign on the nginx analogue with checkpoints:
// at each checkpoint the corpus-so-far trains a fresh ITC-CFG and the
// reference workload measures the runtime cred-ratio, reproducing the
// rising path count and the >97% credibility of Figure 5(d).
func (r *Runner) Fig5d(checkpoints []int) ([]Fig5dPoint, error) {
	a := apps.Nginx()
	exec := func(input []byte, cov []byte) error {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			return err
		}
		p.CPU.Branch = fuzz.CoverageSink(cov)
		if _, err := k.Run(p, 3_000_000); err != nil {
			return err
		}
		return nil
	}
	seeds := [][]byte{
		[]byte("G /index\n"),
		[]byte("P 64\n"),
		[]byte("H /health\n"),
	}
	f := fuzz.New(exec, seeds, fuzz.DefaultConfig())

	refInput := a.MakeInput(r.Scale, r.Seed)
	var points []Fig5dPoint
	prev := 0
	for _, cp := range checkpoints {
		if cp > prev {
			f.Run(cp)
			prev = cp
		}
		// Train a fresh graph with the corpus so far.
		an, err := r.Analyze(a)
		if err != nil {
			return nil, err
		}
		for _, input := range f.Corpus() {
			// A crashing corpus entry still trains on the trace it left;
			// one that fails to run or decode trains nothing.
			if raw, _, err := tracerec.Record(a, input, 3_000_000, 32<<20); err == nil {
				_ = observeTrace(an.ITC, raw)
			}
		}
		an.ITC.RebuildCache()
		pr, err := r.RunProtected(an, refInput, r.policy())
		if err != nil {
			return nil, err
		}
		points = append(points, Fig5dPoint{
			Execs:     f.Execs,
			Paths:     f.CoveredSlots(),
			QueueLen:  len(f.Queue()),
			CredRatio: pr.Stats.CredRatioRuntime(),
		})
	}
	return points, nil
}

// HWDecoderSpeedup is the factor a dedicated hardware pattern-matching
// decoder removes from the fast-decode share (§6 suggestion 1, evaluated
// in §7.2.4).
const HWDecoderSpeedup = 20

// HWAblationRow compares the software fast path against the §6
// hardware-decoder model for one server (§7.2.4).
type HWAblationRow struct {
	App          string
	SWTotalPct   float64
	HWTotalPct   float64
	SWDecodePct  float64
	HWDecodePct  float64
	DecodeShare  float64 // decode share of total overhead, software path
	ReductionPct float64 // total overhead reduction from the HW decoder
}

func (r HWAblationRow) String() string {
	return fmt.Sprintf("%-8s sw=%.2f%% (decode %.2f%%, %.0f%% of overhead)  hw=%.2f%% (decode %.2f%%)  reduction=%.0f%%",
		r.App, r.SWTotalPct, r.SWDecodePct, 100*r.DecodeShare, r.HWTotalPct, r.HWDecodePct, r.ReductionPct)
}

// HWAblation runs the server panel once in software and models the
// dedicated decoder on the same run: the decoder changes only the cost
// per scanned trace byte, so its row is the software row with the
// decode share divided by HWDecoderSpeedup.
func (r *Runner) HWAblation() ([]HWAblationRow, error) {
	var rows []HWAblationRow
	for _, a := range apps.Servers() {
		sw, err := r.overheadFor(a, r.policy())
		if err != nil {
			return nil, err
		}
		hwDecode := sw.DecodePct / HWDecoderSpeedup
		row := HWAblationRow{
			App:        a.Name,
			SWTotalPct: sw.TotalPct, HWTotalPct: sw.TotalPct - sw.DecodePct + hwDecode,
			SWDecodePct: sw.DecodePct, HWDecodePct: hwDecode,
		}
		if sw.TotalPct > 0 {
			row.DecodeShare = sw.DecodePct / sw.TotalPct
			row.ReductionPct = 100 * (sw.TotalPct - row.HWTotalPct) / sw.TotalPct
		}
		rows = append(rows, row)
	}
	return rows, nil
}

package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// ModeRow compares one checking-mode variant on the nginx analogue:
// the paper's default, the multi-level-credit variant (§4.3), the
// path-sensitive future-work mode (§7.1.2), and the PMI worst-case
// endpoint fallback.
type ModeRow struct {
	Mode string
	// Benign-run behaviour.
	OverheadPct float64
	SlowRate    float64
	Checks      uint64
	// Attack coverage.
	CatchesROP      bool
	CatchesPruning  bool
	PruningDetector string
}

func (r ModeRow) String() string {
	return fmt.Sprintf("%-16s overhead=%6.2f%%  slow-rate=%.3f  checks=%-4d ROP=%-5v pruning=%v (%s)",
		r.Mode, r.OverheadPct, r.SlowRate, r.Checks, r.CatchesROP, r.CatchesPruning, r.PruningDetector)
}

// Modes evaluates the checking-mode matrix on the vulnerable server.
func (r *Runner) Modes() ([]ModeRow, error) {
	an, err := r.Analyze(apps.Vulnd())
	if err != nil {
		return nil, err
	}
	if err := r.Train(an); err != nil {
		return nil, err
	}
	as, err := an.App.Load()
	if err != nil {
		return nil, err
	}
	rop, err := attack.BuildROPWrite(as)
	if err != nil {
		return nil, err
	}
	pruning, err := attack.BuildEndpointPruning(as)
	if err != nil {
		return nil, err
	}
	benign := an.App.MakeInput(r.Scale, r.Seed)

	mk := func(name string, mut func(*guard.Policy)) (ModeRow, error) {
		pol := r.policy()
		if mut != nil {
			mut(&pol)
		}
		row := ModeRow{Mode: name}

		pr, err := r.RunProtected(an, benign, pol)
		if err != nil {
			return row, fmt.Errorf("%s benign: %w", name, err)
		}
		if pr.Killed {
			return row, fmt.Errorf("%s: false positive on benign input: %v", name, pr.Reports)
		}
		row.OverheadPct = pr.OverheadPct()
		row.Checks = pr.Stats.Checks
		if pr.Stats.Checks > 0 {
			row.SlowRate = float64(pr.Stats.SlowChecks) / float64(pr.Stats.Checks)
		}

		prR, err := r.RunProtected(an, rop, pol)
		if err != nil {
			return row, err
		}
		row.CatchesROP = prR.Killed

		prP, err := r.RunProtected(an, pruning, pol)
		if err != nil {
			return row, err
		}
		row.CatchesPruning = prP.Killed
		row.PruningDetector = "-"
		if len(prP.Reports) > 0 {
			if prP.Reports[0].DetectedAtPMI() {
				row.PruningDetector = "PMI"
			} else {
				row.PruningDetector = kernelsim.SyscallName(prP.Reports[0].Syscall)
			}
		}
		return row, nil
	}

	var rows []ModeRow
	for _, m := range []struct {
		name string
		mut  func(*guard.Policy)
	}{
		{"default", nil},
		// The §2/§3.1 strawman: a credibility bar above 1 sends every
		// window with a checked pair to the full decode.
		{"naive-full-decode", func(p *guard.Policy) { p.CredRatio = 2 }},
		{"cred-count>=2", func(p *guard.Policy) { p.CredMinCount = 2 }},
		{"path-sensitive", func(p *guard.Policy) { p.PathSensitive = true }},
		{"pmi-fallback", func(p *guard.Policy) { p.CheckOnPMI = true }},
	} {
		row, err := mk(m.name, m.mut)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

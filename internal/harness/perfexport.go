package harness

// perfexport bridges the harness's experiment results into the
// perfstat artifact schema, so fgbench -json and fgperf speak the same
// BENCH_<date>.json dialect and a trajectory point can carry both
// wall-clock benchmarks and the paper's per-phase overhead breakdowns.

import (
	"flowguard/internal/guard"
	"flowguard/internal/perfstat"
)

// StatsMap returns the counters keyed by name — the artifact's
// fleet_stats form.
func StatsMap(s *guard.Stats) map[string]uint64 {
	fields := s.Fields()
	m := make(map[string]uint64, len(fields))
	for _, f := range fields {
		m[f.Name] = f.Value
	}
	return m
}

// PhaseBreakdowns converts Figure-5 overhead rows into their
// schema-stable artifact form.
func PhaseBreakdowns(rows []OverheadRow) []perfstat.PhaseBreakdown {
	out := make([]perfstat.PhaseBreakdown, len(rows))
	for i, r := range rows {
		out[i] = perfstat.PhaseBreakdown{
			App:        r.App,
			Category:   r.Category,
			TotalPct:   r.TotalPct,
			TracePct:   r.TracePct,
			DecodePct:  r.DecodePct,
			CheckPct:   r.CheckPct,
			OtherPct:   r.OtherPct,
			SlowRate:   r.SlowRate,
			CredRatio:  r.CredRatio,
			BaseInstrs: r.BaseInstrs,
		}
	}
	return out
}

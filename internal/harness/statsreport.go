package harness

import (
	"fmt"
	"strings"

	"flowguard/internal/guard"
)

// FormatStats renders every guard.Stats counter as an aligned block for
// fgbench reports. It walks Stats.Fields, as StatsMap does, so this block
// and the JSON artifact's fleet_stats can never disagree about which
// counters exist.
func FormatStats(s *guard.Stats) string {
	fields := s.Fields()
	width := 0
	for _, f := range fields {
		width = max(width, len(f.Name))
	}
	var b strings.Builder
	for _, f := range fields {
		fmt.Fprintf(&b, "  %-*s %12d\n", width, f.Name, f.Value)
	}
	return b.String()
}

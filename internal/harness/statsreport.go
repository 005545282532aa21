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
	var b strings.Builder
	for _, f := range s.Fields() {
		fmt.Fprintf(&b, "  %-14s %12d\n", f.Name, f.Value)
	}
	return b.String()
}

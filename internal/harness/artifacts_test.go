package harness_test

import (
	"fmt"
	"strings"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/harness"
)

// section renders one fgbench section: its title line, then each row
// indented by two spaces.
func section[T any](title string, rows []T) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", title)
	for _, row := range rows {
		fmt.Fprintln(&b, " ", row)
	}
	return b.String()
}

// TestPaperArtifactsGolden pins the cycle-model paper artifacts at the
// default scale and seed, rendered as `fgbench -claim decode230x -table 1
// -table 4 -fig 5b -fig 5c` prints them. The model is deterministic, so a
// changed constant or a flipped benign verdict shows up as a diff; run
// with -update when the change is intended. None of these sections
// prints a wall-clock figure. Figure 5(a) is left out: it aborts at the
// default scale (exim fails closed on a benign run).
func TestPaperArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale artifacts take seconds each")
	}
	r := harness.NewRunner()
	t1, err := r.Table1()
	if err != nil {
		t.Fatal(err)
	}
	t.Run("table1", func(t *testing.T) {
		golden(t, "table1.golden", section("Table 1: hardware control-flow tracing mechanisms", t1))
	})
	t.Run("decode230x", func(t *testing.T) {
		ipt := t1[len(t1)-1]
		var rows []string
		for _, a := range apps.SpecApps() {
			rows = append(rows, fmt.Sprintf("%-12s %.0fx", a.Name, ipt.KernelDecodingX[a.Name]))
		}
		rows = append(rows, fmt.Sprintf("geomean: %.0fx (paper: ~230x)", ipt.DecodingOverheadX))
		golden(t, "decode230x.golden", section("§2 claim: full-decode overhead vs execution", rows))
	})
	t.Run("table4", func(t *testing.T) {
		t4, _, err := r.Table4And5()
		if err != nil {
			t.Fatal(err)
		}
		var rows []string
		for _, row := range t4 {
			rows = append(rows, row.String())
		}
		before, after := harness.AverageAIAReduction(t4)
		rows = append(rows, fmt.Sprintf("average AIA: %.2f -> %.2f (paper: 72 -> 20)", before, after))
		golden(t, "table4.golden", section("Table 4: CFG statistics and AIA", rows))
	})
	for _, fig := range []struct {
		name, title string
		run         func() ([]harness.OverheadRow, error)
	}{
		{"fig5b", "Figure 5(b): Linux-utility overhead", r.Fig5b},
		{"fig5c", "Figure 5(c): SPEC-like kernel overhead", r.Fig5c},
	} {
		t.Run(fig.name, func(t *testing.T) {
			rows, err := fig.run()
			if err != nil {
				t.Fatal(err)
			}
			golden(t, fig.name+".golden", section(fig.title, rows))
		})
	}
}

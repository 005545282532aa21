package harness_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flowguard/internal/harness"
)

func runner() *harness.Runner {
	r := harness.NewRunner()
	r.Scale = 10
	r.TrainRuns = 4
	return r
}

// TestTable1Shape pins the mechanism ordering of Table 1: BTS tracing is
// orders of magnitude above IPT, LBR is below 1%, IPT lands in the
// few-percent band, and full decoding costs orders of magnitude more
// than execution.
func TestTable1Shape(t *testing.T) {
	rows, err := runner().Table1()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]harness.Table1Row{}
	for _, r := range rows {
		byName[r.Mechanism] = r
	}
	btsv, lbrv, iptv := byName["BTS"], byName["LBR"], byName["IPT"]
	if btsv.TracingOverheadPct < 10*iptv.TracingOverheadPct {
		t.Errorf("BTS %.1f%% not >> IPT %.1f%%", btsv.TracingOverheadPct, iptv.TracingOverheadPct)
	}
	if lbrv.TracingOverheadPct >= 1 {
		t.Errorf("LBR overhead %.2f%%, want < 1%%", lbrv.TracingOverheadPct)
	}
	if iptv.TracingOverheadPct <= lbrv.TracingOverheadPct {
		t.Errorf("IPT %.2f%% not above LBR %.2f%%", iptv.TracingOverheadPct, lbrv.TracingOverheadPct)
	}
	if iptv.TracingOverheadPct > 15 {
		t.Errorf("IPT tracing overhead %.2f%%, want the few-percent band", iptv.TracingOverheadPct)
	}
	if iptv.DecodingOverheadX < 50 {
		t.Errorf("IPT decode overhead %.0fx, want orders of magnitude", iptv.DecodingOverheadX)
	}
	for _, r := range rows {
		t.Log(r)
	}
}

// TestTable4Shape pins the AIA relations: the ITC-CFG is coarser than
// the O-CFG (derogation), the TNT labeling repairs most of it, and the
// fine-grained FlowGuard AIA is the strongest.
func TestTable4Shape(t *testing.T) {
	t4, t5, err := runner().Table4And5()
	if err != nil {
		t.Fatal(err)
	}
	if len(t4) != 4 {
		t.Fatalf("Table 4 rows = %d, want 4 servers", len(t4))
	}
	for _, row := range t4 {
		t.Log(row)
		if row.ITCAIA < row.OCFGAIA {
			t.Errorf("%s: ITC AIA %.2f < O-CFG %.2f (no derogation?)", row.App, row.ITCAIA, row.OCFGAIA)
		}
		if row.ITCAIATnt >= row.ITCAIA {
			t.Errorf("%s: TNT labeling did not reduce AIA (%.2f >= %.2f)", row.App, row.ITCAIATnt, row.ITCAIA)
		}
		if row.FlowGuardAIA >= row.OCFGAIA {
			t.Errorf("%s: FlowGuard AIA %.2f >= O-CFG %.2f", row.App, row.FlowGuardAIA, row.OCFGAIA)
		}
		if row.Libraries < 3 {
			t.Errorf("%s: only %d libraries", row.App, row.Libraries)
		}
		if row.ITCNodes == 0 || row.ITCEdges == 0 {
			t.Errorf("%s: empty ITC-CFG", row.App)
		}
	}
	before, after := harness.AverageAIAReduction(t4)
	if after >= before {
		t.Errorf("average AIA did not drop: %.2f -> %.2f", before, after)
	}
	t.Logf("average AIA: %.2f -> %.2f", before, after)
	for _, row := range t5 {
		t.Log(row)
		if row.MemoryMB <= 0 || row.GenTime <= 0 {
			t.Errorf("%s: degenerate Table 5 row", row.App)
		}
		if row.LibShare < 0.4 {
			t.Errorf("%s: library share %.2f, want a large analysis share", row.App, row.LibShare)
		}
	}
}

// TestFig5aShape: servers run with single-digit-ish overhead and a low
// slow-path rate after training.
func TestFig5aShape(t *testing.T) {
	rows, err := runner().Fig5a()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Log(row)
		if row.App == "geomean" {
			if row.TotalPct <= 0 || row.TotalPct > 25 {
				t.Errorf("server geomean overhead %.2f%%, want a small positive number", row.TotalPct)
			}
			continue
		}
		if row.SlowRate > 0.2 {
			t.Errorf("%s: slow-path rate %.2f, want rare slow paths after training", row.App, row.SlowRate)
		}
		if row.CredRatio < 0.8 {
			t.Errorf("%s: cred-ratio %.2f, want high credibility after training", row.App, row.CredRatio)
		}
	}
}

// TestFig5bShape: utilities are cheaper than servers; dd is the
// cheapest.
func TestFig5bShape(t *testing.T) {
	rows, err := runner().Fig5b()
	if err != nil {
		t.Fatal(err)
	}
	var ddPct, maxPct float64
	for _, row := range rows {
		t.Log(row)
		if row.App == "dd" {
			ddPct = row.TotalPct
		}
		if row.App != "geomean" && row.TotalPct > maxPct {
			maxPct = row.TotalPct
		}
	}
	if ddPct >= maxPct {
		t.Errorf("dd overhead %.2f%% is not the cheapest (max %.2f%%)", ddPct, maxPct)
	}
}

// TestFig5cShape: h264ref is the outlier with the largest overhead,
// driven by trace volume.
func TestFig5cShape(t *testing.T) {
	rows, err := runner().Fig5c()
	if err != nil {
		t.Fatal(err)
	}
	var h264, maxOther float64
	for _, row := range rows {
		t.Log(row)
		switch row.App {
		case "h264ref":
			h264 = row.TotalPct
		case "geomean":
		default:
			if row.TotalPct > maxOther {
				maxOther = row.TotalPct
			}
		}
	}
	if h264 <= maxOther {
		t.Errorf("h264ref %.2f%% is not the outlier (max other %.2f%%)", h264, maxOther)
	}
}

// TestMicroShape: the slow path is at least an order of magnitude above
// the fast path on the same window (the paper reports ~60x).
func TestMicroShape(t *testing.T) {
	m, err := runner().Micro()
	if err != nil {
		t.Fatal(err)
	}
	t.Log(m)
	if m.WindowTIPs < 50 {
		t.Errorf("window has %d TIPs, want ~100", m.WindowTIPs)
	}
	if m.SlowOverFast < 10 {
		t.Errorf("slow/fast ratio %.1fx, want >= 10x", m.SlowOverFast)
	}
	if m.SlowMsAt4GHz <= 0 {
		t.Error("slow path cost is zero")
	}
}

// TestAttackMatrix: every attack is real (succeeds unprotected) and
// every attack is detected, at the endpoints §7.1.2 names.
func TestAttackMatrix(t *testing.T) {
	rows, err := runner().Attacks()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"ROP":           "write",
		"SROP":          "sigreturn",
		"ret2lib":       "execve",
		"history-flush": "write",
	}
	for _, row := range rows {
		t.Log(row)
		if !row.SucceedsUnprotected {
			t.Errorf("%s: exploit does not work unprotected", row.Attack)
		}
		if !row.Detected {
			t.Errorf("%s: not detected", row.Attack)
		}
		if w := want[row.Attack]; row.DetectedAt != w {
			t.Errorf("%s: detected at %s, want %s", row.Attack, row.DetectedAt, w)
		}
	}
}

// TestSweeps: the cred-ratio crossover exists below 100%, and larger
// pkt_count means more checking work.
func TestSweeps(t *testing.T) {
	r := runner()
	sweeps, err := r.SweepCredRatio()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sweeps {
		t.Log(s)
		if s.Crossover >= 1 {
			t.Errorf("%s: no cred-ratio crossover below 100%%", s.App)
		}
	}
	pts, err := r.SweepPktCount([]int{10, 30, 90})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Log(p)
	}
	if pts[len(pts)-1].CheckPct <= pts[0].CheckPct {
		t.Errorf("check share did not grow with pkt_count: %v -> %v", pts[0], pts[len(pts)-1])
	}
}

// TestHWAblation: the dedicated decoder removes a visible share.
func TestHWAblation(t *testing.T) {
	rows, err := runner().HWAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Log(row)
		if row.HWTotalPct >= row.SWTotalPct {
			t.Errorf("%s: HW decoder did not reduce overhead (%.2f >= %.2f)", row.App, row.HWTotalPct, row.SWTotalPct)
		}
	}
}

// TestFig5dShape: paths and cred-ratio rise with fuzzing effort.
func TestFig5dShape(t *testing.T) {
	pts, err := runner().Fig5d([]int{0, 150, 400})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		t.Log(p)
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Paths <= first.Paths {
		t.Errorf("paths did not grow: %d -> %d", first.Paths, last.Paths)
	}
	if last.CredRatio < first.CredRatio {
		t.Errorf("cred-ratio fell: %.3f -> %.3f", first.CredRatio, last.CredRatio)
	}
	if last.CredRatio < 0.9 {
		t.Errorf("final cred-ratio %.3f, want the high-credibility regime", last.CredRatio)
	}
}

// TestModesMatrix: only the PMI fallback catches the endpoint-pruning
// attack; every mode catches the ROP; path-sensitivity costs more.
func TestModesMatrix(t *testing.T) {
	rows, err := runner().Modes()
	if err != nil {
		t.Fatal(err)
	}
	byMode := map[string]harness.ModeRow{}
	for _, row := range rows {
		t.Log(row)
		byMode[row.Mode] = row
		if !row.CatchesROP {
			t.Errorf("%s: missed the ROP", row.Mode)
		}
	}
	if byMode["default"].CatchesPruning {
		t.Error("default endpoints should not catch the pruning attack")
	}
	if !byMode["pmi-fallback"].CatchesPruning {
		t.Error("PMI fallback missed the pruning attack")
	}
	if byMode["path-sensitive"].OverheadPct <= byMode["default"].OverheadPct {
		t.Errorf("path-sensitive overhead %.2f%% not above default %.2f%%",
			byMode["path-sensitive"].OverheadPct, byMode["default"].OverheadPct)
	}
	// The paper's core claim, quantified: naive online full decoding is
	// orders of magnitude above the hybrid fast path.
	naive := byMode["naive-full-decode"]
	if naive.OverheadPct < 100*byMode["default"].OverheadPct {
		t.Errorf("naive full decode %.0f%% not >> default %.2f%%",
			naive.OverheadPct, byMode["default"].OverheadPct)
	}
	if naive.SlowRate != 1 {
		t.Errorf("naive mode slow-rate %.2f, want 1.0", naive.SlowRate)
	}
}

// TestMultiProcTracingCost: the single CR3 filter keeps tracing cost at
// the one-process level; unfiltered multi-process tracing scales with
// the worker count (§7.2.4).
func TestMultiProcTracingCost(t *testing.T) {
	res, err := runner().MultiProc(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(res)
	if res.UnfilteredBytes < 2*res.FilteredBytes {
		t.Errorf("unfiltered %d bytes not well above filtered %d for 3 workers",
			res.UnfilteredBytes, res.FilteredBytes)
	}
	if res.FilteredPct <= 0 || res.UnfilteredPct <= res.FilteredPct {
		t.Errorf("overheads: filtered %.2f%%, unfiltered %.2f%%", res.FilteredPct, res.UnfilteredPct)
	}
}

// TestChaosReproducible: a chaos sweep is a function of its seeds. Two
// runs give identical rows and merged Stats blocks apart from
// WorkerFaults, whose async worker draws follow goroutine scheduling,
// and the Stats counters named in scheduled.
func TestChaosReproducible(t *testing.T) {
	const n = 24 // two full async/sync periods of the sweep
	// Counters that follow goroutine scheduling, not the seed:
	// AsyncMaxLag is the deepest backlog the workers left pending, which
	// depends on when they ran; WorkerCrashes counts injected worker
	// crashes, drawn per pool hook call like WorkerFaults.
	scheduled := map[string]bool{"AsyncMaxLag": true, "WorkerCrashes": true}
	var runs [2][]string
	for i := range runs {
		rows, err := runner().Chaos(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			row.WorkerFaults = 0
			runs[i] = append(runs[i], row.String())
			for _, f := range row.Stats.Fields() {
				if !scheduled[f.Name] {
					runs[i] = append(runs[i], fmt.Sprintf("  %v %s=%d", row.Mode, f.Name, f.Value))
				}
			}
		}
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("chaos rows differ between runs:\n%s\n%s", strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
	}
}

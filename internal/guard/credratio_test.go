package guard

import (
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// TestCredRatioAboveOneDecodesEveryCheckedWindow: a credibility bar above
// 1 is the naive full-decode strawman of §2/§3.1. Replayed at its
// endpoints, a trained benign vsftpd session takes the slow path on
// exactly the checks whose window has a checked pair, and every verdict
// equals the default policy's. A check's checked pairs are the
// HighEdges and LowEdges its default-policy twin counts.
func TestCredRatioAboveOneDecodesEveryCheckedWindow(t *testing.T) {
	vsftpd := apps.Vsftpd()
	ss := recordAppSession(t, vsftpd, vsftpd.MakeInput(40, 2))
	trained := recordAppSession(t, vsftpd, vsftpd.MakeInput(40, 5))
	ig := itc.FromCFG(ss.ocfg)
	evs, err := ipt.DecodeFast(trained.raw)
	if err != nil {
		t.Fatal(err)
	}
	if !ig.ObserveWindow(ipt.ExtractTIPs(evs)) {
		t.Fatal("training observed an edge outside the ITC-CFG")
	}
	ig.RebuildCache()

	naivePol := DefaultPolicy()
	naivePol.CredRatio = 2
	mk := func(pol Policy) *Guard {
		return New(ss.as, ss.ocfg, ig, ipt.NewTracer(ipt.NewToPA(DefaultToPARegion, DefaultToPARegion)), pol)
	}
	def, naive := mk(DefaultPolicy()), mk(naivePol)
	prev, slow, unchecked := 0, 0, 0
	// The first check, over a stream with nothing written, has no pair.
	for i, end := range append([]int{0}, ss.ends...) {
		for _, g := range []*Guard{def, naive} {
			g.Tracer.Out.Write(ss.raw[prev:end])
		}
		prev = end
		pairs := def.Stats.HighEdges + def.Stats.LowEdges
		want := def.Check()
		pairs = def.Stats.HighEdges + def.Stats.LowEdges - pairs
		got := naive.Check()
		if got.Verdict != want.Verdict || got.Reason != want.Reason {
			t.Fatalf("check %d: CredRatio 2 verdict %v (%s), default %v (%s)", i, got.Verdict, got.Reason, want.Verdict, want.Reason)
		}
		if got.UsedSlowPath != (pairs > 0) {
			t.Fatalf("check %d: %d checked pairs, but CredRatio 2 slow path = %v", i, pairs, got.UsedSlowPath)
		}
		if got.UsedSlowPath {
			slow++
		} else {
			unchecked++
		}
	}
	if slow == 0 || unchecked == 0 {
		t.Fatalf("%d checks took the slow path and %d had no checked pair; want both kinds", slow, unchecked)
	}
	if def.Stats.Violations != 0 {
		t.Fatalf("benign trained session: %d violations under the default policy", def.Stats.Violations)
	}
	t.Logf("%d checks: %d slow, %d without a checked pair; default policy took %d slow", slow+unchecked, slow, unchecked, def.Stats.SlowChecks)
}

package guard

import (
	"bytes"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// TestShippedArtifactJudgesLikeTrained: the labels a trained graph
// publishes and the same labels shipped as FGITCFL1 bytes and loaded
// through itc.Decode judge a session identically. A recorded session is
// replayed at its endpoints into two guards, one over each artifact, and
// every check must give the same Result and the same Stats, cache hits
// and high- and low-credit edge counts included. The labels are trained
// on a shorter session than the one checked, so the replay meets cache
// hits, low-credit edges and slow paths.
func TestShippedArtifactJudgesLikeTrained(t *testing.T) {
	for _, app := range []*apps.App{apps.Nginx(), apps.Vsftpd()} {
		t.Run(app.Name, func(t *testing.T) {
			training := recordAppSession(t, app, app.MakeInput(20, 1))
			ss := recordAppSession(t, app, app.MakeInput(60, 2))
			evs, err := ipt.DecodeFast(training.raw)
			if err != nil {
				t.Fatal(err)
			}
			ig := itc.FromCFG(ss.ocfg)
			if !ig.ObserveWindow(ipt.ExtractTIPs(evs)) {
				t.Fatal("training observed an edge outside the ITC-CFG")
			}
			ig.RebuildCache()
			trained := ig.Artifact()
			dg, err := itc.Decode(bytes.NewReader(trained.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			mk := func(art *itc.Artifact) *Guard {
				tr := ipt.NewTracer(ipt.NewToPA(DefaultToPARegion, DefaultToPARegion))
				return NewBinary(ss.as, ss.ocfg, art).NewGuard(tr, DefaultPolicy())
			}
			g, shipped := mk(trained), mk(dg.Artifact())
			lo := 0
			for i, end := range ss.ends {
				g.Tracer.Out.Write(ss.raw[lo:end])
				shipped.Tracer.Out.Write(ss.raw[lo:end])
				lo = end
				got, want := shipped.Check(), g.Check()
				if got != want {
					t.Fatalf("check %d: shipped artifact %+v, trained %+v", i, got, want)
				}
				if shipped.Stats != g.Stats {
					t.Fatalf("check %d: shipped artifact's stats %+v, trained %+v", i, shipped.Stats, g.Stats)
				}
			}
			st := &g.Stats
			if st.CacheHits == 0 || st.LowEdges == 0 || st.SlowChecks == 0 {
				t.Fatalf("%d checks: %d cache hits, %d low-credit edges, %d slow checks; the replay does not exercise both arenas",
					st.Checks, st.CacheHits, st.LowEdges, st.SlowChecks)
			}
		})
	}
}

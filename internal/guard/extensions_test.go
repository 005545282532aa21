package guard_test

import (
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// TestEndpointPruningEscapesDefaultPolicy validates the threat §7.1.2
// acknowledges: an attack that avoids every guarded syscall completes
// under the default endpoint set...
func TestEndpointPruningEscapesDefaultPolicy(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())
	as, _ := a.app.Load()
	payload, err := attack.BuildEndpointPruning(as)
	if err != nil {
		t.Fatal(err)
	}
	st, km, _, _ := a.protectAndRun(t, payload, guard.DefaultPolicy())
	if st.Killed {
		t.Fatalf("endpoint-pruning attack killed under default policy: %v (it touches no endpoint)", km.Reports)
	}
	if len(km.Reports) != 0 {
		t.Fatalf("unexpected reports: %v", km.Reports)
	}
}

// pmiModes are the two pipelines the ToPA's one region-full hook
// serves under CheckOnPMI: the synchronous check alone, and the async
// capture followed by the check when the table wraps.
var pmiModes = []struct {
	name  string
	async bool
}{{"sync", false}, {"async", true}}

// pmiPolicy is the default policy with buffer-full PMIs as endpoints.
func pmiPolicy(async bool) guard.Policy {
	pol := guard.DefaultPolicy()
	pol.CheckOnPMI = true
	pol.Async = async
	return pol
}

// ...and TestEndpointPruningCaughtByPMI validates the paper's worst-case
// fallback: with buffer-full PMIs as endpoints, the same attack dies,
// with or without the async pipeline capturing the same region fills.
func TestEndpointPruningCaughtByPMI(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())
	as, _ := a.app.Load()
	payload, err := attack.BuildEndpointPruning(as)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range pmiModes {
		t.Run(m.name, func(t *testing.T) {
			st, km, g, _ := a.protectAndRun(t, payload, pmiPolicy(m.async))
			km.Shutdown()
			if !st.Killed || st.Signal != kernelsim.SIGKILL {
				t.Fatalf("PMI policy missed the pruning attack: %v", st)
			}
			if len(km.Reports) == 0 || !km.Reports[0].DetectedAtPMI() {
				t.Fatalf("reports = %v, want a PMI-labeled detection", km.Reports)
			}
			if m.async && g.Stats.AsyncWindows == 0 {
				t.Fatal("async run captured no windows: the PMI check displaced the capture")
			}
			t.Logf("report: %v", km.Reports[0])
		})
	}
}

// TestPMIPolicyBenignClean: PMI checking must not flag trained benign
// traffic even when the buffer wraps many times, with or without the
// async pipeline.
func TestPMIPolicyBenignClean(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic(), a.app.MakeInput(20, 5))
	for _, m := range pmiModes {
		t.Run(m.name, func(t *testing.T) {
			st, km, g, _ := a.protectAndRun(t, a.app.MakeInput(20, 5), pmiPolicy(m.async))
			km.Shutdown()
			if !st.Exited {
				t.Fatalf("benign PMI run: %v; %v", st, km.Reports)
			}
			if len(km.Reports) != 0 {
				t.Fatalf("false positives under PMI policy: %v", km.Reports)
			}
			if g.Stats.Checks == 0 {
				t.Fatal("no checks ran")
			}
			if m.async && g.Stats.AsyncWindows == 0 {
				t.Fatal("async run captured no windows")
			}
		})
	}
}

// TestMultiLevelCredits: raising the credit bar sends rare edges to the
// slow path without ever killing benign traffic.
func TestMultiLevelCredits(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	// Train several times so hot edges accumulate counts.
	a.train(t, benignTraffic(), benignTraffic(), benignTraffic())

	polLow := guard.DefaultPolicy()
	stL, kmL, gL, _ := a.protectAndRun(t, benignTraffic(), polLow)
	if !stL.Exited || len(kmL.Reports) != 0 {
		t.Fatalf("binary labeling run: %v %v", stL, kmL.Reports)
	}

	polHigh := guard.DefaultPolicy()
	polHigh.CredMinCount = 1000 // nothing reaches this
	stH, kmH, gH, _ := a.protectAndRun(t, benignTraffic(), polHigh)
	if !stH.Exited {
		t.Fatalf("high-bar run killed: %v %v", stH, kmH.Reports)
	}
	if len(kmH.Reports) != 0 {
		t.Fatalf("false positives with CredMinCount: %v", kmH.Reports)
	}
	if gH.Stats.SlowChecks <= gL.Stats.SlowChecks {
		t.Errorf("CredMinCount=1000 slow checks %d <= binary labeling %d",
			gH.Stats.SlowChecks, gL.Stats.SlowChecks)
	}

	// A modest bar (2 observations after 3 training runs) behaves like
	// binary labeling for hot paths.
	polMid := guard.DefaultPolicy()
	polMid.CredMinCount = 2
	stM, kmM, _, _ := a.protectAndRun(t, benignTraffic(), polMid)
	if !stM.Exited || len(kmM.Reports) != 0 {
		t.Fatalf("mid-bar run: %v %v", stM, kmM.Reports)
	}
}

// TestPathSensitiveMode: the future-work extension still accepts benign
// traffic (via training + slow-path approvals) and still kills the ROP.
func TestPathSensitiveMode(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic(), a.app.MakeInput(15, 9))
	pol := guard.DefaultPolicy()
	pol.PathSensitive = true

	st, km, g, _ := a.protectAndRun(t, benignTraffic(), pol)
	if !st.Exited {
		t.Fatalf("benign path-sensitive run: %v %v", st, km.Reports)
	}
	if len(km.Reports) != 0 {
		t.Fatalf("false positives: %v", km.Reports)
	}

	// Compared to the plain mode on unseen traffic, path matching must
	// escalate at least as often (the cost the paper predicts).
	unseen := a.app.MakeInput(15, 77)
	stPlain, _, gPlain, _ := a.protectAndRun(t, unseen, guard.DefaultPolicy())
	stPath, kmPath, gPath, _ := a.protectAndRun(t, unseen, pol)
	if !stPlain.Exited || !stPath.Exited {
		t.Fatalf("unseen traffic runs: %v / %v (%v)", stPlain, stPath, kmPath.Reports)
	}
	if gPath.Stats.SlowChecks < gPlain.Stats.SlowChecks {
		t.Errorf("path-sensitive slow checks %d < plain %d", gPath.Stats.SlowChecks, gPlain.Stats.SlowChecks)
	}
	_ = g

	// And the ROP still dies.
	as, _ := a.app.Load()
	payload, err := attack.BuildROPWrite(as)
	if err != nil {
		t.Fatal(err)
	}
	stAtk, kmAtk, _, _ := a.protectAndRun(t, payload, pol)
	if !stAtk.Killed || len(kmAtk.Reports) == 0 {
		t.Fatalf("path-sensitive mode missed the ROP: %v", stAtk)
	}
}

// TestTrainingObservesPaths: the window trainer records edge pairs.
func TestTrainingObservesPaths(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	if a.ig.NumPaths() != 0 {
		t.Fatal("paths trained before training")
	}
	a.train(t, benignTraffic())
	if a.ig.NumPaths() == 0 {
		t.Fatal("training recorded no edge pairs")
	}
}

package harness

import (
	"strings"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

var threaddFix struct {
	once sync.Once
	fx   *DiffFixture
	err  error
}

func threaddFixture(t *testing.T) *DiffFixture {
	threaddFix.once.Do(func() {
		threaddFix.fx, threaddFix.err = NewRunner().DiffTrain(apps.Threadd())
	})
	if threaddFix.err != nil {
		t.Fatalf("threadd fixture: %v", threaddFix.err)
	}
	return threaddFix.fx
}

// gateRun runs threadd preempted across two cores through a diffGate, as
// diffMulticoreRun does, and returns the gate before finish so a test
// can inspect its oracles and the statistics it is about to compare.
func gateRun(t *testing.T) (*diffGate, kernelsim.ExitStatus) {
	t.Helper()
	fx := threaddFixture(t)
	k := kernelsim.New()
	p, err := fx.An.App.Spawn(k, fx.An.App.MakeInput(24, 7))
	if err != nil {
		t.Fatal(err)
	}
	km := guard.InstallModule(k)
	if err := km.EnableMulticore(2); err != nil {
		t.Fatal(err)
	}
	d, err := newDiffGate(fx, km, p, guard.DefaultPolicy(), km.ProtectMulticore)
	if err != nil {
		t.Fatal(err)
	}
	sts, err := k.RunMulticore([]*kernelsim.Process{p}, 2, 200, 500_000_000)
	km.FlushMulticore()
	km.Shutdown()
	if err != nil {
		t.Fatal(err)
	}
	return d, sts[0]
}

// TestDiffGateOraclePerThread: when clone threads cross endpoints, the
// gate checks each thread's demuxed stream against an oracle reading
// that same stream, so the guard and the oracles agree on every check.
// An oracle reading the process stream for every thread would judge a
// clone's check over the wrong records.
func TestDiffGateOraclePerThread(t *testing.T) {
	d, st := gateRun(t)
	out, err := d.finish(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, div := range out.Divergences {
		t.Error(div)
	}
	if !out.Exited || out.Killed {
		t.Errorf("benign threadd run did not exit cleanly (exited=%v killed=%v)", out.Exited, out.Killed)
	}
	if len(d.oracles) < 2 {
		t.Errorf("%d checked sinks: no clone thread crossed an endpoint, the test is vacuous", len(d.oracles))
	}
}

// TestDiffGateComparesStats: finish compares the guard's counters with
// its oracles' sum, so a counter the oracle models that drifts on the
// guard side alone is reported by name.
func TestDiffGateComparesStats(t *testing.T) {
	d, st := gateRun(t)
	d.out.Guard.Stats.SlowChecks++
	out, err := d.finish(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Divergences) != 1 || !strings.HasPrefix(out.Divergences[0], "stats SlowChecks: guard=") {
		t.Fatalf("divergences %v, want exactly the perturbed SlowChecks", out.Divergences)
	}
}

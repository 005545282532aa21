package lockorder

import (
	"strings"
	"testing"

	"flowguard/internal/analysis"
	"flowguard/internal/analysis/analysistest"
)

func TestBad(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/bad", "flowguard/internal/analysis/lockorder/fixture")
}

func TestGood(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/good", "flowguard/internal/analysis/lockorder/fixture")
}

// TestHeldBad and TestHeldGood cover the in-function rules: what a
// function may not do textually inside its own lock region.
func TestHeldBad(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/held/bad", "flowguard/internal/analysis/lockorder/fixture")
}

func TestHeldGood(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/held/good", "flowguard/internal/analysis/lockorder/fixture")
}

// TestStaleSuppression proves the suppression lifecycle on this
// analyzer: a //fg:ignore lockorder left behind after the cycle was
// fixed errors.
func TestStaleSuppression(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/stale", "flowguard/internal/analysis/lockorder/fixture")
}

// TestMalformedSuppression proves an //fg:ignore lockorder with no
// reason is refused. Asserted in code: a trailing want comment would
// itself be parsed as the directive's reason.
func TestMalformedSuppression(t *testing.T) {
	l, err := analysistest.TestLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.LoadDir("testdata/malformed", "flowguard/internal/analysis/lockorder/fixture")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	findings, err := analysis.Run(pkg, []*analysis.Analyzer{Analyzer})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(findings) != 1 || !strings.Contains(findings[0].Message, "malformed //fg:ignore") {
		t.Fatalf("want exactly one malformed-suppression finding, got %v", findings)
	}
}

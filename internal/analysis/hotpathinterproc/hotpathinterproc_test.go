package hotpathinterproc

import (
	"testing"

	"flowguard/internal/analysis/analysistest"
)

const base = "flowguard/internal/analysis/hotpathinterproc"

func TestBad(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/bad", base+"/fixture")
}

func TestGood(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/good", base+"/fixture")
}

// TestAllocBad and TestAllocGood run the per-construct fixtures: every
// allocation-forcing construct inside a //fg:hotpath function, and the
// shapes that stay allowed.
func TestAllocBad(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/allocbad", base+"/fixture")
}

func TestAllocGood(t *testing.T) {
	analysistest.RunFixture(t, Analyzer, "testdata/allocgood", base+"/fixture")
}

// TestCrossPackage analyzes the dependency first, then the importing
// fixture with only the exported facts in scope — the driver order
// cmd/fgvet uses on the real tree.
func TestCrossPackage(t *testing.T) {
	analysistest.RunFixtureDeps(t, Analyzer,
		[]analysistest.Dep{{Dir: "testdata/dep", PkgPath: base + "/fixturedep"}},
		"testdata/crosspkg", base+"/fixture")
}

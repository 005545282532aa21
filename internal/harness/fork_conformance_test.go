package harness

// The fork-inheritance conformance property (DESIGN.md §10, the
// ForkGuard contract): after a fork from a quiescent parent, the
// child's verdicts over any replayed stream are byte-identical to those
// of a fresh process built with the parent's Approvals().Clone() taken
// at fork time — and the fresh twin stays divergence-free against the
// reference oracle, so the child is transitively oracle-conformant.
// Failures shrink through the packet-aligned delta debugger and dump a
// TestOracleReplay artifact like every other property here.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// The undertrained fixture is what makes the property non-vacuous: the
// replayed tail crosses legal-but-uncredited edges, so the parent banks
// slow-path approvals the child must inherit bit-for-bit.
var forkFix struct {
	once sync.Once
	fx   *DiffFixture
	art  *itc.Artifact
	err  error
}

func forkFixture(t testing.TB) (*DiffFixture, *itc.Artifact) {
	forkFix.once.Do(func() {
		forkFix.fx, forkFix.err = newUnderTrainedFixture()
		if forkFix.err == nil {
			forkFix.art = forkFix.fx.An.ITC.Artifact()
		}
	})
	if forkFix.err != nil {
		t.Fatalf("fork fixture: %v", forkFix.err)
	}
	return forkFix.fx, forkFix.art
}

// forkPoint is one seed's decoded parameter set.
type forkPoint struct {
	pol      guard.Policy
	chunks   int  // replay chunking (parent prefix and child full replay)
	forkAt   int  // the parent consumes chunks [0, forkAt) before forking
	artifact bool // dispatch via the shared itc.Artifact, not the live graph
	inject   int  // 0 = benign stream; else the injectEdge pick
}

func forkPointFor(seed int64) forkPoint {
	rng := rand.New(rand.NewSource(seed))
	p := forkPoint{
		pol:      modePolicy(diffModes[rng.Intn(len(diffModes))]),
		chunks:   3 + rng.Intn(6),
		artifact: rng.Intn(2) == 1,
	}
	// forkAt may reach chunks: a parent that completes the stream has
	// banked its slow-path approvals, so the child's own replay must
	// fast-path the edges a no-inheritance guard would slow-path.
	p.forkAt = 1 + rng.Intn(p.chunks)
	if rng.Intn(2) == 1 {
		p.inject = 1 + rng.Intn(6)
	}
	return p
}

// forkStream derives the seed's replay stream; an impossible injection
// degrades to the benign stream rather than skipping the seed.
func forkStream(fx *DiffFixture, p forkPoint) []byte {
	if p.inject == 0 {
		return fx.BenignTrace
	}
	raw, ok := injectEdge(fx.BenignTrace, p.inject, jopTarget(fx))
	if !ok {
		return fx.BenignTrace
	}
	return raw
}

// compareForkResults demands bit-identical child/twin results: the
// contract is equality of every result field — including the
// deterministic cycle meters — not mere verdict agreement.
func compareForkResults(check int, c, f guard.Result) (divs []string) {
	add := func(field string, cv, fv any) {
		divs = append(divs, fmt.Sprintf("check %d %s: child=%v fresh=%v", check, field, cv, fv))
	}
	if c.Verdict != f.Verdict {
		add("verdict", c.Verdict, f.Verdict)
	}
	if c.Reason != f.Reason {
		add("reason", c.Reason, f.Reason)
	}
	if c.TIPs != f.TIPs {
		add("tips", c.TIPs, f.TIPs)
	}
	if c.LowCredit != f.LowCredit {
		add("low-credit", c.LowCredit, f.LowCredit)
	}
	if c.UsedSlowPath != f.UsedSlowPath {
		add("used-slow-path", c.UsedSlowPath, f.UsedSlowPath)
	}
	if c.Health != f.Health {
		add("health", c.Health, f.Health)
	}
	if c.Degraded != f.Degraded {
		add("degraded", c.Degraded, f.Degraded)
	}
	if c.Retries != f.Retries {
		add("retries", c.Retries, f.Retries)
	}
	if c.DecodeCycles != f.DecodeCycles || c.CheckCycles != f.CheckCycles ||
		c.OtherCycles != f.OtherCycles || c.SlowCycles != f.SlowCycles {
		add("cycles", [4]uint64{c.DecodeCycles, c.CheckCycles, c.OtherCycles, c.SlowCycles},
			[4]uint64{f.DecodeCycles, f.CheckCycles, f.OtherCycles, f.SlowCycles})
	}
	return divs
}

// compareForkStats diffs every guard.Stats counter between child and
// twin except ForkInherits (the child counts its inheritance; the twin
// by construction has none). Stats.Fields walks the struct declaration,
// so this stays exhaustive as counters are added.
func compareForkStats(c, f *guard.Stats) (divs []string) {
	cf, ff := c.Fields(), f.Fields()
	for i := range cf {
		if cf[i].Name == "ForkInherits" {
			continue
		}
		if cf[i].Value != ff[i].Value {
			divs = append(divs, fmt.Sprintf("stats %s: child=%d fresh=%d", cf[i].Name, cf[i].Value, ff[i].Value))
		}
	}
	return divs
}

// runForkConformance replays one seed point: the parent pair consumes
// chunks [0, forkAt), then the forked child (ForkGuard: shared live
// state) and the fresh twin (cloned approvals) each replay the full
// stream — their own execution — into their own buffers, with the twin
// double-checked against the oracle. Returns all divergences and
// whether the fork actually inherited a non-empty approval store.
func runForkConformance(fx *DiffFixture, art *itc.Artifact, p forkPoint, raw []byte) ([]string, bool, error) {
	region := len(raw) + guard.DefaultToPARegion
	g1, o1, topa1, err := newDiffPair(fx, p.pol, region)
	if err != nil {
		return nil, false, err
	}
	if p.artifact {
		g1.UseArtifact(art)
	}
	var divs []string
	check := 0
	for c := 0; c < p.forkAt; c++ {
		lo, hi := c*len(raw)/p.chunks, (c+1)*len(raw)/p.chunks
		topa1.Write(raw[lo:hi])
		check++
		divs = append(divs, compareResults(check, g1.Check(), o1.Check())...)
	}

	// Fork time. The child shares the parent's state by pointer; the
	// twin gets an independent snapshot of the same state.
	childTopa := ipt.NewToPA(region, region)
	childTr := ipt.NewTracer(childTopa)
	if err := childTr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, false, err
	}
	child := guard.ForkGuard(g1, nil, childTr)

	g2, o2, topa2, err := newDiffPair(fx, p.pol, region)
	if err != nil {
		return nil, false, err
	}
	if p.artifact {
		g2.UseArtifact(art)
	}
	g2.ShareApprovals(g1.Approvals().Clone())
	o2.AdoptApprovals(o1)
	inherited := g1.Approvals().Len() > 0

	for c := 0; c < p.chunks; c++ {
		lo, hi := c*len(raw)/p.chunks, (c+1)*len(raw)/p.chunks
		childTopa.Write(raw[lo:hi])
		topa2.Write(raw[lo:hi])
		rc := child.Check()
		rf := g2.Check()
		ro := o2.Check()
		check++
		divs = append(divs, compareForkResults(check, rc, rf)...)
		divs = append(divs, compareResults(check, rf, ro)...)
	}
	divs = append(divs, compareForkStats(&child.Stats, &g2.Stats)...)
	divs = append(divs, compareStats(&g2.Stats, &o2.Stats)...)
	return divs, inherited, nil
}

// TestPropertyForkInheritance sweeps seeded (mode, chunking, fork
// point, dispatch, mutation) combinations of the conformance contract.
func TestPropertyForkInheritance(t *testing.T) {
	fx, art := forkFixture(t)
	seeds := *propSeeds
	inherited := 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := forkPointFor(seed)
		raw := forkStream(fx, p)
		divs, inh, err := runForkConformance(fx, art, p, raw)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if inh {
			inherited++
		}
		if len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d: %s", seed, d)
			}
			dumpFailure(t, &SeedArtifact{Property: "fork-inherit", Seed: seed,
				Mode: int(p.pol.OnDegraded), Chunks: p.chunks, Pick: p.forkAt}, raw,
				func(b []byte) bool {
					d2, _, e := runForkConformance(fx, art, p, b)
					return e == nil && len(d2) > 0
				})
			return // one minimized artifact is enough; it replays the bug
		}
	}
	if inherited == 0 {
		t.Error("no seed forked with a non-empty approval store; the property never exercised inheritance")
	}
}

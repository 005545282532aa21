package harness

// Raw-stream differential replays: a production guard and a reference
// oracle share one fresh ToPA that the replay writes packet bytes into.
// No process runs, so the guard is built directly (guard.New) rather
// than through the kernel module as the process runs of oracle.go are.

import (
	"flowguard/internal/guard"
	"flowguard/internal/oracle"
	"flowguard/internal/trace/ipt"
)

// diffRawStream replays a raw packet stream into a fresh ToPA in chunks,
// checking with both pipelines after every chunk — the vehicle for
// mutated, truncated and fuzz-generated traces that no real execution
// produces.
func diffRawStream(fx *DiffFixture, pol guard.Policy, raw []byte, chunks, region int) (*DiffOutcome, error) {
	g, o, topa, err := newDiffPair(fx, pol, region)
	if err != nil {
		return nil, err
	}
	if pol.Async {
		ap := guard.NewAsyncPool(pol.AsyncWorkers)
		defer ap.Close()
		g.EnableAsync(ap)
	}
	return replayStream(g, o, topa, raw, chunks)
}

// diffFleetStream is the fleet workload class of the soak: an
// artifact-backed parent guard replays a benign stream to quiescence
// (banking approvals), then a child built by ForkGuard replays its own
// stream — benign or attacked — from a fresh window, compared against
// a fresh oracle pre-seeded with the parent's approvals. This is the
// fork-inheritance conformance contract (see ForkGuard) exercised at
// soak scale: the child's verdicts must match an oracle that inherited
// the same trained state, and an injected edge must still be caught
// despite the inheritance.
func diffFleetStream(fx *DiffFixture, pol guard.Policy, parentRaw, childRaw []byte, chunks int) (*DiffOutcome, error) {
	region := len(parentRaw) + guard.DefaultToPARegion
	if len(childRaw) > len(parentRaw) {
		region = len(childRaw) + guard.DefaultToPARegion
	}
	parent, po, ptopa, err := newDiffPair(fx, pol, region)
	if err != nil {
		return nil, err
	}
	parent.UseArtifact(fx.An.ITC.Artifact())
	var ap *guard.AsyncPool
	if pol.Async {
		ap = guard.NewAsyncPool(pol.AsyncWorkers)
		defer ap.Close()
		parent.EnableAsync(ap)
	}
	out, err := replayStream(parent, po, ptopa, parentRaw, chunks)
	if err != nil {
		return nil, err
	}

	ctopa := ipt.NewToPA(region, region)
	ctr := ipt.NewTracer(ctopa)
	if err := ctr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, err
	}
	child := guard.ForkGuard(parent, nil, ctr)
	if ap != nil {
		child.EnableAsync(ap)
	}
	co := oracle.New(fx.An.OCFG.AS, fx.An.OCFG, fx.Ref, ctopa, oraclePolicy(pol))
	co.AdoptApprovals(po)
	cout, err := replayStream(child, co, ctopa, childRaw, chunks)
	if err != nil {
		return nil, err
	}

	out.GuardViolation = out.GuardViolation || cout.GuardViolation
	out.Results = append(out.Results, cout.Results...)
	out.Divergences = append(out.Divergences, cout.Divergences...)
	return out, nil
}

// newDiffPair builds a production guard and a reference oracle over one
// shared fresh ToPA (no process attached — raw-stream replay).
func newDiffPair(fx *DiffFixture, pol guard.Policy, region int) (*guard.Guard, *oracle.Oracle, *ipt.ToPA, error) {
	if region < ipt.PSBSize {
		region = guard.DefaultToPARegion
	}
	topa := ipt.NewToPA(region, region)
	tr := ipt.NewTracer(topa)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, nil, nil, err
	}
	as := fx.An.OCFG.AS
	g := guard.New(as, fx.An.OCFG, fx.An.ITC, tr, pol)
	o := oracle.New(as, fx.An.OCFG, fx.Ref, topa, oraclePolicy(pol))
	return g, o, topa, nil
}

// replayStream writes raw into the buffer in chunks, checking with both
// pipelines after each. A guard ledger that breaks one of its accounting
// identities fails the replay.
func replayStream(g *guard.Guard, o *oracle.Oracle, topa *ipt.ToPA, raw []byte, chunks int) (*DiffOutcome, error) {
	if chunks < 1 {
		chunks = 1
	}
	out := &DiffOutcome{}
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(raw)/chunks, (c+1)*len(raw)/chunks
		topa.Write(raw[lo:hi])
		out.record(g.Check(), o.Check())
	}
	out.Divergences = append(out.Divergences, compareStats(&g.Stats, &o.Stats)...)
	return out, g.Stats.CheckLedger()
}

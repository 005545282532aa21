package itc_test

import (
	"errors"
	"testing"

	"flowguard/internal/asm"
	"flowguard/internal/cfg"
	"flowguard/internal/cpu"
	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/module"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

const ctlDefault = ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA

// figure4Program mirrors Figure 4 of the paper: the IT-BB "fork" holds a
// conditional; the not-taken side performs an indirect call through a
// table, the taken side returns directly. Collapsing the conditional
// merges the call-target set with the return-target set on fork's
// outgoing ITC edges (AIA derogation); the TNT labels restore the split.
//
// Inputs are passed through the "input" data words (selector, table
// offset) so the toolchain's argument-materialization invariant holds.
func figure4Program(t *testing.T) *module.AddressSpace {
	t.Helper()
	b := asm.NewModule("fig4")
	b.DataSpace("input", 16, false)
	b.FuncTable("tblA", []string{"bb4", "bb5"}, false)
	b.FuncTable("entrytbl", []string{"fork"}, false)

	main := b.Func("main", 0, true)
	b.SetEntry("main")
	main.AddrOf(isa.R8, "input")
	main.Ld(isa.R0, isa.R8, 0) // selector
	main.Ld(isa.R1, isa.R8, 8) // table byte offset
	main.AddrOf(isa.R6, "entrytbl")
	main.Ld(isa.R6, isa.R6, 0)
	main.CallR(isa.R6) // -> fork; the return lands at "mainRet"
	main.Halt()

	fork := b.Func("fork", 2, false)
	fork.Cmpi(isa.R0, 0)
	fork.Jcc(isa.NE, "right") // BB-1's conditional fork
	// Not-taken side (BB-2): indirect call through tblA.
	fork.AddrOf(isa.R6, "tblA")
	fork.Add(isa.R6, isa.R1)
	fork.Ld(isa.R6, isa.R6, 0)
	fork.Movi(isa.R0, 1)
	fork.CallR(isa.R6)
	fork.Ret()
	// Taken side (BB-3): plain return.
	fork.Label("right")
	fork.Ret()

	b.Func("bb4", 0, false).Movi(isa.R0, 4).Ret()
	bb5 := b.Func("bb5", 1, false)
	bb5.Addi(isa.R0, 50).Ret()
	m, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	as, err := module.Load(m, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func buildBoth(t *testing.T, as *module.AddressSpace) (*cfg.Graph, *itc.Graph) {
	t.Helper()
	g, err := cfg.Build(as)
	if err != nil {
		t.Fatal(err)
	}
	return g, itc.FromCFG(g)
}

func TestNodesAreIndirectTargets(t *testing.T) {
	as := figure4Program(t)
	g, ig := buildBoth(t, as)
	if ig.NumNodes() == 0 || ig.Edges == 0 {
		t.Fatalf("empty ITC-CFG: %v", ig)
	}
	// Every node must be the target of some indirect edge in the O-CFG.
	isTarget := map[uint64]bool{}
	for _, b := range g.Blocks {
		for _, tt := range b.IndTargets {
			isTarget[tt] = true
		}
	}
	for _, n := range ig.Nodes() {
		if !isTarget[n] {
			t.Errorf("ITC node %s is not an indirect target", as.SymbolFor(n))
		}
	}
	for _, name := range []string{"fork", "bb4", "bb5"} {
		a, _ := as.Exec.SymbolAddr(name)
		if !ig.HasNode(a) {
			t.Errorf("%s missing from ITC nodes", name)
		}
	}
}

// TestAIADerogation reproduces Figure 4 locally: the fork node's ITC
// out-degree (call targets merged with return targets across the
// collapsed conditional) exceeds every single O-CFG site reachable from
// it.
func TestAIADerogation(t *testing.T) {
	as := figure4Program(t)
	g, ig := buildBoth(t, as)
	fork, _ := as.Exec.SymbolAddr("fork")

	outdeg := 0
	for _, d := range allTargets(g) {
		if ig.HasEdge(fork, d) {
			outdeg++
		}
	}
	// Sites inside fork: the CALLR and the two RETs.
	maxSite := 0
	for _, s := range g.Sites {
		if s.Fn.Entry == fork {
			if len(s.Targets) > maxSite {
				maxSite = len(s.Targets)
			}
		}
	}
	if maxSite == 0 {
		t.Fatal("no indirect sites in fork")
	}
	if outdeg <= maxSite {
		t.Errorf("fork ITC out-degree %d <= max site set %d; expected derogation (Figure 4)", outdeg, maxSite)
	}
}

func allTargets(g *cfg.Graph) []uint64 {
	set := map[uint64]bool{}
	for _, b := range g.Blocks {
		for _, t := range b.IndTargets {
			set[t] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	return out
}

// runTraced pokes the input words, executes the program with IPT tracing
// and returns the TIP window plus ground truth.
func runTraced(t *testing.T, as *module.AddressSpace, selector, tblOff uint64) ([]ipt.TIPRecord, []trace.Branch) {
	t.Helper()
	input, ok := as.Exec.SymbolAddr("input")
	if !ok {
		t.Fatal("no input symbol")
	}
	if err := as.WriteU64(input, selector); err != nil {
		t.Fatal(err)
	}
	if err := as.WriteU64(input+8, tblOff); err != nil {
		t.Fatal(err)
	}
	c := cpu.New(as)
	tr := ipt.NewTracer(ipt.NewToPA(1 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlDefault); err != nil {
		t.Fatal(err)
	}
	var truth []trace.Branch
	c.Branch = trace.MultiSink{tr, trace.SinkFunc(func(b trace.Branch) { truth = append(truth, b) })}
	if _, err := c.Run(1_000_000); !errors.Is(err, cpu.ErrHalted) {
		t.Fatalf("Run: %v (pc=%#x)", err, c.PC)
	}
	tr.Flush()
	evs, err := ipt.DecodeFast(tr.Out.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return ipt.ExtractTIPs(evs), truth
}

// TestConsecutiveTIPsAreEdges is the §4.2 correctness theorem: for any
// two consecutive TIP packets traced by IPT, there must be an edge in the
// ITC-CFG.
func TestConsecutiveTIPsAreEdges(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	for _, seed := range []struct{ sel, off uint64 }{{0, 0}, {0, 8}, {1, 0}} {
		tips, _ := runTraced(t, as, seed.sel, seed.off)
		if len(tips) < 2 {
			t.Fatalf("seed %v: only %d TIPs", seed, len(tips))
		}
		for i := 0; i+1 < len(tips); i++ {
			if !ig.HasEdge(tips[i].IP, tips[i+1].IP) {
				t.Errorf("seed %v: consecutive TIPs %s -> %s not an ITC edge",
					seed, as.SymbolFor(tips[i].IP), as.SymbolFor(tips[i+1].IP))
			}
		}
	}
}

func trainAll(t *testing.T, as *module.AddressSpace, ig *itc.Graph) {
	t.Helper()
	for _, seed := range []struct{ sel, off uint64 }{{0, 0}, {0, 8}, {1, 0}} {
		tips, _ := runTraced(t, as, seed.sel, seed.off)
		for i := 0; i+1 < len(tips); i++ {
			if !ig.Observe(tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig) {
				t.Fatalf("trained edge %s->%s not in ITC-CFG",
					as.SymbolFor(tips[i].IP), as.SymbolFor(tips[i+1].IP))
			}
		}
	}
	ig.RebuildCache()
}

// TestTrainingRestoresPrecision mirrors §4.3: TNT labels must separate
// the call-side targets (not-taken fork) from the return-side target
// (taken fork), and drop the TNT-aware AIA below the plain ITC AIA.
func TestTrainingRestoresPrecision(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	trainAll(t, as, ig)

	plain := ig.AIA()
	tnt := ig.AIAWithTNT()
	if tnt >= plain {
		t.Errorf("AIA with TNT %.2f >= plain %.2f; TNT labels should restore precision", tnt, plain)
	}
	cs := ig.Credits()
	if cs.HighCredit == 0 || cs.Ratio == 0 {
		t.Fatalf("no high-credit edges after training: %+v", cs)
	}

	fork, _ := as.Exec.SymbolAddr("fork")
	bb4, _ := as.Exec.SymbolAddr("bb4")
	notTaken := ipt.TNTSigAppend(ipt.TNTSigEmpty, false)
	taken := ipt.TNTSigAppend(ipt.TNTSigEmpty, true)

	l4 := ig.Lookup(fork, bb4, notTaken)
	if !l4.Exists || !l4.HighCredit || !l4.SigMatch {
		t.Errorf("fork->bb4 with not-taken TNT: %+v, want trained match", l4)
	}
	if l4wrong := ig.Lookup(fork, bb4, taken); l4wrong.SigMatch {
		t.Error("fork->bb4 matched the taken TNT signature; forking info lost")
	}
	// The taken path returns to mainRet: find that edge and verify the
	// not-taken signature does NOT match it even though the plain ITC
	// edge exists.
	var mainRet uint64
	tips, _ := runTraced(t, as, 1, 0)
	mainRet = tips[len(tips)-1].IP
	l6 := ig.Lookup(fork, mainRet, notTaken)
	if !l6.Exists {
		t.Fatal("fork->mainRet edge missing from ITC-CFG")
	}
	if l6.SigMatch {
		t.Error("fork->mainRet matched the not-taken TNT signature; derogation not repaired")
	}
	if lOK := ig.Lookup(fork, mainRet, taken); !lOK.SigMatch {
		t.Errorf("fork->mainRet with taken TNT: %+v, want trained match", lOK)
	}
}

func TestLookupAndCache(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	trainAll(t, as, ig)
	tips, _ := runTraced(t, as, 0, 0)
	src, dst, sig := tips[0].IP, tips[1].IP, tips[1].TNTSig

	l := ig.Lookup(src, dst, sig)
	if !l.Exists || !l.HighCredit || !l.SigMatch || l.Count == 0 {
		t.Fatalf("Lookup(trained edge) = %+v", l)
	}
	hit, sigOK := ig.Artifact().CacheLookup(src, dst, sig)
	if !hit || !sigOK {
		t.Fatalf("CacheLookup(trained edge) = %v, %v", hit, sigOK)
	}
	if hit, _ := ig.Artifact().CacheLookup(src, 0xdead, sig); hit {
		t.Error("cache hit for absent edge")
	}
	if l := ig.Lookup(0xdead, dst, sig); l.Exists {
		t.Error("Lookup invented a node")
	}
	if ig.Observe(0xdead, dst, sig) {
		t.Error("Observe accepted an edge outside the graph")
	}
	if ig.MemoryBytes() == 0 {
		t.Error("MemoryBytes = 0")
	}
}

func TestFineGrainedAIA(t *testing.T) {
	as := figure4Program(t)
	g, _ := buildBoth(t, as)
	fine := itc.FineGrainedAIA(g)
	ocfg := g.ComputeStats().AIA
	if fine <= 0 {
		t.Fatalf("fine-grained AIA = %v", fine)
	}
	if fine > ocfg {
		t.Errorf("fine-grained AIA %.2f > O-CFG %.2f; shadow stack must only shrink it", fine, ocfg)
	}
}

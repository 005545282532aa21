package harness

import (
	"math/rand"
	"testing"

	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/oracle"
	"flowguard/internal/trace/ipt"
)

// Conformance of the flat ITC tables against the differential oracle's
// map+BFS reference, over randomized synthetic CFGs: the production graph
// (eytzinger index, offset arenas, lock-free snapshots) and the naive
// reference must agree on every Lookup, CacheLookup and path probe, both
// through training churn and across RebuildCache generations. This is
// the property-level counterpart of the trace-driven differential suite:
// it reaches graph shapes no program generator emits.

// synthProgram builds a random synthetic O-CFG: a run of blocks where
// every block either falls/jumps/conditionally branches to other blocks
// or terminates indirectly targeting random block entries.
func synthProgram(rng *rand.Rand, nBlocks int) *cfg.Graph {
	starts := make([]uint64, nBlocks)
	for i := range starts {
		starts[i] = 0x400000 + uint64(i)*0x40
	}
	blocks := make([]*cfg.Block, nBlocks)
	for i := range blocks {
		b := &cfg.Block{Start: starts[i], End: starts[i] + 0x40}
		pick := func() uint64 { return starts[rng.Intn(nBlocks)] }
		switch rng.Intn(6) {
		case 0:
			b.Kind = cfg.TermFall
			b.Next = pick()
		case 1:
			b.Kind = cfg.TermJmp
			b.Next = pick()
		case 2:
			b.Kind = cfg.TermCond
			b.Taken, b.Fall = pick(), pick()
		default:
			if rng.Intn(2) == 0 {
				b.Kind = cfg.TermIndCall
			} else {
				b.Kind = cfg.TermIndJmp
			}
			n := 1 + rng.Intn(4)
			seen := map[uint64]bool{}
			for len(seen) < n {
				seen[pick()] = true
			}
			for t := range seen {
				b.IndTargets = append(b.IndTargets, t)
			}
			sortAddrs(b.IndTargets)
		}
		blocks[i] = b
	}
	return cfg.Synthetic(blocks)
}

func sortAddrs(a []uint64) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// randSig yields the signature of a short random TNT run, occasionally
// the long-run wildcard or the empty run.
func randSig(rng *rand.Rand) uint64 {
	switch rng.Intn(5) {
	case 0:
		return ipt.TNTSigEmpty
	case 1:
		return ipt.TNTSigLongRun
	default:
		sig := ipt.TNTSigEmpty
		for b := 0; b < 1+rng.Intn(6); b++ {
			sig = ipt.TNTSigAppend(sig, rng.Intn(2) == 0)
		}
		return sig
	}
}

// TestFlatITCMatchesOracleRef cross-checks the production flat tables
// against the oracle reference on randomized graphs through a full
// train / rebuild / re-train cycle. Both sides answer from their last
// published labels, so they must agree between publications too.
func TestFlatITCMatchesOracleRef(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 30; round++ {
		og := synthProgram(rng, 4+rng.Intn(30))
		g := itc.FromCFG(og)
		ref := oracle.NewRef(og)

		// Topology must agree before any training.
		if g.NumNodes() != ref.NumNodes() {
			t.Fatalf("round %d: node count %d vs ref %d", round, g.NumNodes(), ref.NumNodes())
		}
		refEdges := ref.Edges()
		if g.Edges != len(refEdges) {
			t.Fatalf("round %d: edge count %d vs ref %d", round, g.Edges, len(refEdges))
		}
		nodes := g.Nodes()
		if len(nodes) == 0 {
			continue
		}
		pick := func() uint64 { return nodes[rng.Intn(len(nodes))] }

		// Train both sides with the same random edge and path stream;
		// production and reference must agree on membership as they go.
		train := func(k int) {
			for ; k > 0; k-- {
				var src, dst uint64
				if len(refEdges) > 0 && rng.Intn(3) > 0 {
					e := refEdges[rng.Intn(len(refEdges))]
					src, dst = e[0], e[1]
				} else {
					src, dst = pick(), pick()
				}
				sig := randSig(rng)
				if got, want := g.Observe(src, dst, sig), ref.Observe(src, dst, sig); got != want {
					t.Fatalf("round %d: Observe(%#x,%#x) = %v, ref %v", round, src, dst, got, want)
				}
				if rng.Intn(4) == 0 {
					a, b, c := pick(), pick(), pick()
					g.ObservePath(a, b, c)
					ref.ObservePath(a, b, c)
				}
			}
		}
		check := func(stage string) {
			for k := 0; k < 200; k++ {
				src, dst, sig := pick(), pick(), randSig(rng)
				if len(refEdges) > 0 && rng.Intn(2) == 0 {
					e := refEdges[rng.Intn(len(refEdges))]
					src, dst = e[0], e[1]
				}
				exists, count, sigOK := ref.Lookup(src, dst, sig)
				l := g.Lookup(src, dst, sig)
				if l.Exists != exists || l.Count != count || (l.HighCredit && l.SigMatch != sigOK) {
					t.Fatalf("round %d %s: Lookup(%#x,%#x,%#x) = %+v, ref (%v,%d,%v)",
						round, stage, src, dst, sig, l, exists, count, sigOK)
				}
				hit, sm := g.Artifact().CacheLookup(src, dst, sig)
				if hit != (l.Exists && l.HighCredit) || (hit && sm != l.SigMatch) {
					t.Fatalf("round %d %s: cache (%v,%v) vs lookup %+v", round, stage, hit, sm, l)
				}
				a, b, c := pick(), pick(), pick()
				if got, want := g.Artifact().PathTrained(itc.PathKey(a, b, c)), ref.PathObserved(a, b, c); got != want {
					t.Fatalf("round %d %s: PathTrained(%#x,%#x,%#x) = %v, ref %v", round, stage, a, b, c, got, want)
				}
			}
		}

		rebuild := func() {
			g.RebuildCache()
			ref.Rebuild()
		}
		train(60)
		check("pre-rebuild (construction's labels)")
		gen := g.Artifact().Gen()
		rebuild()
		if g.Artifact().Gen() != gen+1 {
			t.Fatalf("round %d: label generation did not advance on RebuildCache", round)
		}
		check("post-rebuild")

		// Training after a publication stays invisible on both sides
		// until the next one.
		train(30)
		check("unpublished retraining")
		rebuild()
		check("second generation")
		if g.Artifact().Gen() != gen+2 {
			t.Fatalf("round %d: label generation %d after two rebuilds, want %d", round, g.Artifact().Gen(), gen+2)
		}
	}
}

// TestFlatCacheLookupStaleUntilRebuild pins the label-publication
// contract the guard depends on: Lookup and CacheLookup both serve the
// last *published* labels — observations after a rebuild reach neither
// until the next RebuildCache publishes them to both at once.
func TestFlatCacheLookupStaleUntilRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for round := 0; round < 20; round++ {
		og := synthProgram(rng, 10+rng.Intn(20))
		g := itc.FromCFG(og)
		ref := oracle.NewRef(og)
		refEdges := ref.Edges()
		if len(refEdges) == 0 {
			continue
		}
		e := refEdges[rng.Intn(len(refEdges))]
		sig := randSig(rng)

		// FromCFG published the empty-label generation.
		if hit, _ := g.Artifact().CacheLookup(e[0], e[1], sig); hit {
			t.Fatalf("round %d: cache hit before any training", round)
		}
		if !g.Observe(e[0], e[1], sig) {
			t.Fatalf("round %d: edge %#x->%#x not in graph", round, e[0], e[1])
		}
		if l := g.Lookup(e[0], e[1], sig); !l.Exists || l.HighCredit {
			t.Fatalf("round %d: unrebuilt observation leaked into Lookup: %+v", round, l)
		}
		if hit, _ := g.Artifact().CacheLookup(e[0], e[1], sig); hit {
			t.Fatalf("round %d: unrebuilt observation leaked into the cache", round)
		}
		g.RebuildCache()
		if l := g.Lookup(e[0], e[1], sig); !l.HighCredit || !l.SigMatch {
			t.Fatalf("round %d: Lookup missed the published observation: %+v", round, l)
		}
		hit, sm := g.Artifact().CacheLookup(e[0], e[1], sig)
		if !hit || !sm {
			t.Fatalf("round %d: cache missed trained edge after rebuild (%v,%v)", round, hit, sm)
		}
	}
}

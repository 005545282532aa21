package itc_test

// Artifact sharing tests (run them under -race): an Artifact is the
// fleet's one-per-binary immutable view of the labeled ITC-CFG, probed
// lock-free by any number of checkers while the live graph keeps
// training and republishing snapshots underneath it.

import (
	"bytes"
	"sync"
	"testing"

	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// TestArtifactZeroCopyFromSnapshot pins the no-copy contract: an
// Artifact aliases the label snapshot's own flat arenas, so reading the
// published one again without intervening training allocates no new
// graph memory, and Bytes hands out the arena itself.
func TestArtifactZeroCopyFromSnapshot(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	edges := graphEdges(ig)
	for round, e := range edges {
		ig.Observe(e[0], e[1], uint64(round))
	}
	ig.RebuildCache()

	a1 := ig.Artifact()
	a2 := ig.Artifact()
	if a1 != a2 || &a1.Bytes()[0] != &a2.Bytes()[0] {
		t.Fatal("two reads of one quiescent graph's artifact hold different full arenas: a copy was made")
	}
	var buf bytes.Buffer
	if err := ig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), a1.Bytes()) {
		t.Fatal("Artifact.Bytes differs from the encoded arena")
	}
	if a1.Size() == 0 {
		t.Fatal("trained artifact serialized to zero bytes")
	}
}

// TestArtifactImmutableUnderRetraining races checker goroutines probing
// a published artifact against a trainer mutating the live graph and
// republishing its snapshot: the artifact's answers and generation must
// never change — it is a fixed point-in-time view, which is exactly
// what lets ten thousand guards probe it without synchronization.
func TestArtifactImmutableUnderRetraining(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	edges := graphEdges(ig)
	if len(edges) < 2 {
		t.Fatal("fixture graph too small")
	}
	// Train only the first half of the edges, then publish.
	half := edges[:len(edges)/2]
	for _, e := range half {
		ig.Observe(e[0], e[1], 3)
		ig.ObservePath(e[0], e[1], e[0])
	}
	ig.RebuildCache()
	art := ig.Artifact()
	gen := art.Gen()

	type probe struct {
		label    itc.EdgeLabel
		hit, sig bool
		path     bool
	}
	baseline := make([]probe, len(edges))
	snap := func(a *itc.Artifact) []probe {
		out := make([]probe, len(edges))
		for i, e := range edges {
			out[i].label = a.Lookup(e[0], e[1], 3)
			out[i].hit, out[i].sig = a.CacheLookup(e[0], e[1], 3)
			out[i].path = a.PathTrained(itc.PathKey(e[0], e[1], e[0]))
		}
		return out
	}
	copy(baseline, snap(art))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			i := seed
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := edges[i%len(edges)]
				got := art.Lookup(e[0], e[1], 3)
				want := baseline[i%len(edges)].label
				if got != want {
					t.Errorf("artifact lookup %#x->%#x changed under retraining: %+v -> %+v", e[0], e[1], want, got)
					return
				}
				art.CacheLookup(e[0], e[1], uint64(i))
				art.PathTrained(itc.PathKey(e[0], e[1], e[0]))
				i++
			}
		}(w)
	}
	// Retrain every edge (including the untrained half) and republish
	// the snapshot repeatedly while the probes run.
	for round := 0; round < 50; round++ {
		for _, e := range edges {
			ig.Observe(e[0], e[1], uint64(round))
			ig.ObservePath(e[0], e[1], e[1])
		}
		ig.RebuildCache()
	}
	close(stop)
	wg.Wait()

	if art.Gen() != gen {
		t.Fatalf("artifact generation moved under retraining: %d -> %d", gen, art.Gen())
	}
	for i, p := range snap(art) {
		if p != baseline[i] {
			t.Errorf("edge %#x->%#x drifted: %+v -> %+v", edges[i][0], edges[i][1], baseline[i], p)
		}
	}
	// The live graph, by contrast, must have moved on.
	fresh := ig.Artifact()
	if fresh.Gen() == gen {
		t.Fatal("retraining plus rebuild did not advance the live label generation")
	}
}

// TestDecodedArtifactAgrees pins the serialized round trip at the
// artifact level: the artifact of a graph decoded from FGITCFL1 bytes
// must answer every Lookup/CacheLookup/PathTrained probe exactly like
// the artifact that produced the bytes, its separate high-credit memory
// rebuilt from the full arena.
func TestDecodedArtifactAgrees(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	edges := graphEdges(ig)
	for i, e := range edges {
		if i%2 == 0 {
			ig.Observe(e[0], e[1], uint64(i))
			ig.ObservePath(e[0], e[1], e[0])
		}
	}
	ig.RebuildCache()
	orig := ig.Artifact()

	dg, err := itc.Decode(bytes.NewReader(orig.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	adopted := dg.Artifact()
	for _, e := range edges {
		for _, sig := range []uint64{ipt.TNTSigEmpty, 3, uint64(e[0] % 7)} {
			if got, want := adopted.Lookup(e[0], e[1], sig), orig.Lookup(e[0], e[1], sig); got != want {
				t.Fatalf("lookup %#x->%#x sig %d: adopted %+v, original %+v", e[0], e[1], sig, got, want)
			}
			ah, asig := adopted.CacheLookup(e[0], e[1], sig)
			oh, osig := orig.CacheLookup(e[0], e[1], sig)
			if ah != oh || asig != osig {
				t.Fatalf("cache lookup %#x->%#x sig %d: adopted (%v,%v), original (%v,%v)", e[0], e[1], sig, ah, asig, oh, osig)
			}
			key := itc.PathKey(e[0], e[1], e[0])
			if adopted.PathTrained(key) != orig.PathTrained(key) {
				t.Fatalf("path trained %#x->%#x diverges after round trip", e[0], e[1])
			}
		}
	}
}

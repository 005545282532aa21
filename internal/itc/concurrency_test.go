package itc_test

// Concurrency tests (run them under -race): checker goroutines keep
// issuing lookups while training observes edges and rebuilds the
// high-credit cache, mirroring pooled checkers (guard.FleetPool) over a
// shared graph.

import (
	"sync"
	"testing"

	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

func graphEdges(ig *itc.Graph) [][2]uint64 {
	var edges [][2]uint64
	for _, src := range ig.Nodes() {
		for _, dst := range ig.Nodes() {
			if ig.HasEdge(src, dst) {
				edges = append(edges, [2]uint64{src, dst})
			}
		}
	}
	return edges
}

func TestConcurrentLookupsDuringTraining(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	edges := graphEdges(ig)
	if len(edges) == 0 {
		t.Fatal("graph has no edges")
	}

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
				ig.Lookup(e[0], e[1], ipt.TNTSigEmpty)
				art := ig.Artifact()
				art.CacheLookup(e[0], e[1], ipt.TNTSigEmpty)
				art.PathTrained(itc.PathKey(e[0], e[1], e[0]))
				i++
			}
		}(w)
	}
	// Training mutates labels and republishes the lock-free snapshot
	// while the readers above hammer the lookup paths.
	for round := 0; round < 100; round++ {
		for _, e := range edges {
			ig.Observe(e[0], e[1], uint64(round))
			ig.ObservePath(e[0], e[1], e[0])
		}
		ig.RebuildCache()
	}
	close(stop)
	wg.Wait()

	for _, e := range edges {
		l := ig.Lookup(e[0], e[1], 5)
		if !l.Exists || !l.HighCredit || l.Count < 100 {
			t.Fatalf("edge %#x->%#x after training: %+v", e[0], e[1], l)
		}
		if !ig.Artifact().PathTrained(itc.PathKey(e[0], e[1], e[0])) {
			t.Fatalf("path %#x->%#x->%#x lost", e[0], e[1], e[0])
		}
	}
}

// TestObserveVisibleAtRebuild pins the label-publication rule: an
// Observe changes only the training labels. Lookup, CacheLookup and
// PathTrained keep answering from the published artifact — including its
// generation — until the next RebuildCache publishes the observation to
// all three at once.
func TestObserveVisibleAtRebuild(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	edges := graphEdges(ig)
	e := edges[0]
	pub := ig.Artifact()
	gen := pub.Gen()

	if !ig.Observe(e[0], e[1], 7) {
		t.Fatal("Observe rejected a graph edge")
	}
	ig.ObservePath(e[0], e[1], e[0])
	if l := ig.Lookup(e[0], e[1], 7); !l.Exists || l.HighCredit || l.Count != 0 {
		t.Fatalf("unpublished observation visible to Lookup: %+v", l)
	}
	if hit, _ := ig.Artifact().CacheLookup(e[0], e[1], 7); hit {
		t.Fatal("unpublished observation visible to CacheLookup")
	}
	if ig.Artifact().PathTrained(itc.PathKey(e[0], e[1], e[0])) {
		t.Fatal("unpublished path visible to PathTrained")
	}
	if ig.Artifact() != pub || ig.Artifact().Gen() != gen {
		t.Fatal("Observe published a new artifact")
	}

	ig.RebuildCache()
	art := ig.Artifact()
	if art.Gen() != gen+1 {
		t.Fatalf("generation = %d after RebuildCache, want %d", art.Gen(), gen+1)
	}
	if l := ig.Lookup(e[0], e[1], 7); !l.HighCredit || !l.SigMatch || l.Count != 1 {
		t.Fatalf("observation not published by RebuildCache: %+v", l)
	}
	if hit, sigOK := art.CacheLookup(e[0], e[1], 7); !hit || !sigOK {
		t.Fatal("high-credit cache missing the edge after RebuildCache")
	}
	if !art.PathTrained(itc.PathKey(e[0], e[1], e[0])) {
		t.Fatal("path not published by RebuildCache")
	}
	if l := pub.Lookup(e[0], e[1], 7); l.HighCredit {
		t.Fatalf("RebuildCache mutated the previously published artifact: %+v", l)
	}
}

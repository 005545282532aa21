package itc_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// TestEncodeDecodeRoundTrip: a trained graph survives serialization with
// all labels, signatures and path marks intact.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	trainAll(t, as, ig)
	// Also record a path mark.
	tips, _ := runTraced(t, as, 0, 0)
	ig.ObserveWindow(tips)
	ig.RebuildCache()

	var buf bytes.Buffer
	if err := ig.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := itc.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != ig.NumNodes() || got.Edges != ig.Edges {
		t.Fatalf("shape mismatch: %v vs %v", got, ig)
	}
	if got.Credits() != ig.Credits() {
		t.Errorf("credits mismatch: %+v vs %+v", got.Credits(), ig.Credits())
	}
	if got.NumPaths() != ig.NumPaths() {
		t.Errorf("paths = %d, want %d", got.NumPaths(), ig.NumPaths())
	}
	// Lookups behave identically, including the rebuilt cache.
	fork, _ := as.Exec.SymbolAddr("fork")
	bb4, _ := as.Exec.SymbolAddr("bb4")
	sig := ipt.TNTSigAppend(ipt.TNTSigEmpty, false)
	if got.Lookup(fork, bb4, sig) != ig.Lookup(fork, bb4, sig) {
		t.Error("Lookup differs after round trip")
	}
	h1, s1 := ig.Artifact().CacheLookup(fork, bb4, sig)
	h2, s2 := got.Artifact().CacheLookup(fork, bb4, sig)
	if h1 != h2 || s1 != s2 {
		t.Error("CacheLookup differs after round trip")
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := itc.Decode(bytes.NewReader([]byte("not a graph"))); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

// TestPathKeyDistinguishesOrder: the path hash is order-sensitive.
func TestPathKeyDistinguishesOrder(t *testing.T) {
	if itc.PathKey(1, 2, 3) == itc.PathKey(3, 2, 1) {
		t.Error("PathKey is order-insensitive")
	}
	if itc.PathKey(1, 2, 3) == itc.PathKey(1, 2, 4) {
		t.Error("PathKey ignores the final element")
	}
}

// TestCreditLevels: counts accumulate and reach the published labels.
func TestCreditLevels(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	tips, _ := runTraced(t, as, 0, 0)
	for i := 0; i < 3; i++ {
		ig.ObserveWindow(tips)
	}
	ig.RebuildCache()
	src, dst := tips[0].IP, tips[1].IP
	if l := ig.Lookup(src, dst, tips[1].TNTSig); l.Count != 3 || !l.HighCredit {
		t.Errorf("edge label %+v, want 3 observations", l)
	}
	if l := ig.Lookup(0xdead, dst, 0); l.Count != 0 || l.HighCredit {
		t.Errorf("absent edge has credit: %+v", l)
	}
}

// Property: Observe/Lookup are consistent for arbitrary (edge, sig)
// probes once published — observed pairs match, unobserved signatures don't (unless the
// long-run wildcard was trained on that edge).
func TestQuickObserveLookup(t *testing.T) {
	as := figure4Program(t)
	_, ig := buildBoth(t, as)
	nodes := ig.Nodes()
	if len(nodes) == 0 {
		t.Fatal("no nodes")
	}
	f := func(srcIdx, dstIdx uint16, sig uint64, observe bool) bool {
		src := nodes[int(srcIdx)%len(nodes)]
		dst := nodes[int(dstIdx)%len(nodes)]
		if sig == ipt.TNTSigLongRun {
			sig++ // keep the wildcard out of the random space
		}
		exists := ig.HasEdge(src, dst)
		if observe {
			if got := ig.Observe(src, dst, sig); got != exists {
				return false
			}
			ig.RebuildCache()
		}
		l := ig.Lookup(src, dst, sig)
		if l.Exists != exists {
			return false
		}
		if observe && exists && (!l.HighCredit || !l.SigMatch) {
			return false
		}
		if !exists && (l.HighCredit || l.SigMatch) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}

package itc

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"flowguard/internal/trace/ipt"
)

// randomTrainedGraph builds a Graph with randomized topology and labels
// directly (no CFG collapse): the flat layout must hold for any shape,
// not just ones a compiler would emit.
func randomTrainedGraph(rng *rand.Rand, nNodes int) *Graph {
	nodes := make([]uint64, 0, nNodes)
	seen := map[uint64]bool{}
	for len(nodes) < nNodes {
		a := 0x400000 + uint64(rng.Intn(1<<20))*16
		if !seen[a] {
			seen[a] = true
			nodes = append(nodes, a)
		}
	}
	sortU64(nodes)
	g := &Graph{
		nodes: nodes,
		succs: make([][]uint64, nNodes),
		meta:  make([][]edgeMeta, nNodes),
	}
	for i := range nodes {
		deg := rng.Intn(5)
		if deg > nNodes {
			deg = nNodes
		}
		ts := map[uint64]bool{}
		for len(ts) < deg {
			ts[nodes[rng.Intn(nNodes)]] = true
		}
		succ := make([]uint64, 0, deg)
		for t := range ts {
			succ = append(succ, t)
		}
		sortU64(succ)
		g.succs[i] = succ
		g.meta[i] = make([]edgeMeta, deg)
		g.Edges += deg
	}
	// Train a random subset of edges with random signatures.
	for i := range g.succs {
		for _, dst := range g.succs[i] {
			if rng.Intn(3) == 0 {
				continue // leave low-credit
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				sig := ipt.TNTSigEmpty
				if rng.Intn(4) == 0 {
					sig = ipt.TNTSigLongRun
				} else {
					for b := 0; b < rng.Intn(6); b++ {
						sig = ipt.TNTSigAppend(sig, rng.Intn(2) == 0)
					}
				}
				g.Observe(g.nodes[i], dst, sig)
			}
		}
	}
	// Random trained paths.
	for k := 0; k < nNodes; k++ {
		g.ObservePath(nodes[rng.Intn(nNodes)], nodes[rng.Intn(nNodes)], nodes[rng.Intn(nNodes)])
	}
	return g
}

// metaLookup answers a lookup straight from the training-side labels —
// the reference the published flat arenas must agree with.
func metaLookup(g *Graph, src, dst, sig uint64) EdgeLabel {
	i, ok := g.nodeIndex(src)
	if !ok {
		return EdgeLabel{}
	}
	j, ok := g.edgeIndex(i, dst)
	if !ok {
		return EdgeLabel{}
	}
	m := &g.meta[i][j]
	l := EdgeLabel{Exists: true, HighCredit: m.count > 0, Count: m.count}
	for _, s := range m.sigs {
		l.SigMatch = l.SigMatch || (l.HighCredit && (s == sig || s == ipt.TNTSigLongRun))
	}
	return l
}

// TestFlatAgreesWithMeta drives randomized graphs through the published
// flat arenas and the training-side meta labels and requires identical
// answers from Lookup, CacheLookup and PathTrained for hits and misses
// alike.
func TestFlatAgreesWithMeta(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 50; round++ {
		g := randomTrainedGraph(rng, 2+rng.Intn(40))

		// Collect the reference answers from the training labels.
		type probe struct {
			src, dst, sig   uint64
			want            EdgeLabel
			wantHit, wantSM bool
		}
		var probes []probe
		addProbe := func(src, dst, sig uint64) {
			l := metaLookup(g, src, dst, sig)
			probes = append(probes, probe{src: src, dst: dst, sig: sig, want: l})
		}
		for i := range g.succs {
			for j, dst := range g.succs[i] {
				addProbe(g.nodes[i], dst, ipt.TNTSigEmpty)
				for _, s := range g.meta[i][j].sigs {
					addProbe(g.nodes[i], dst, s)
				}
				addProbe(g.nodes[i], dst, 0xdeadbeef)
			}
			addProbe(g.nodes[i], 0x1, 0) // miss: absent target
		}
		addProbe(0x1, 0x2, 0) // miss: absent source

		g.RebuildCache()
		for pi := range probes {
			p := &probes[pi]
			got := g.Lookup(p.src, p.dst, p.sig)
			if got != p.want {
				t.Fatalf("round %d: flat Lookup(%#x,%#x,%#x) = %+v, want %+v",
					round, p.src, p.dst, p.sig, got, p.want)
			}
			hit, sm := g.Artifact().CacheLookup(p.src, p.dst, p.sig)
			wantHit := p.want.Exists && p.want.HighCredit
			wantSM := wantHit && p.want.SigMatch
			if hit != wantHit || sm != wantSM {
				t.Fatalf("round %d: flat CacheLookup(%#x,%#x,%#x) = (%v,%v), want (%v,%v)",
					round, p.src, p.dst, p.sig, hit, sm, wantHit, wantSM)
			}
		}
		// Path probes: trained keys hit, a fresh key misses.
		for p := range g.paths {
			if !g.Artifact().PathTrained(p) {
				t.Fatalf("round %d: trained path key %#x not found in flat", round, p)
			}
		}
		if g.Artifact().PathTrained(0x1234) == (func() bool { _, ok := g.paths[0x1234]; return ok }()) == false {
			t.Fatalf("round %d: flat PathTrained(0x1234) disagrees with map", round)
		}
	}
}

// TestFlatRoundTripCanonical pins the zero-copy serialization contract:
// Encode produces the arena bytes, Decode adopts and revalidates them,
// and re-encoding the decoded graph reproduces the input byte for byte.
func TestFlatRoundTripCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 20; round++ {
		g := randomTrainedGraph(rng, 1+rng.Intn(30))
		g.RebuildCache()

		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		wire := append([]byte(nil), buf.Bytes()...)

		g2, err := Decode(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.Edges != g.Edges || g2.NumPaths() != g.NumPaths() {
			t.Fatalf("round %d: shape mismatch after decode", round)
		}
		var buf2 bytes.Buffer
		if err := g2.Encode(&buf2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wire, buf2.Bytes()) {
			t.Fatalf("round %d: re-encode not byte-identical (%d vs %d bytes)",
				round, len(wire), buf2.Len())
		}
		// Decoded graph answers like the original.
		for i := range g.succs {
			for _, dst := range g.succs[i] {
				if a, b := g.Lookup(g.nodes[i], dst, ipt.TNTSigEmpty), g2.Lookup(g.nodes[i], dst, ipt.TNTSigEmpty); a != b {
					t.Fatalf("round %d: lookup divergence after round-trip: %+v vs %+v", round, a, b)
				}
			}
		}
	}
}

// TestFlatEncodeWithoutSnapshot pins what Encode writes when labels were
// observed after the last RebuildCache: the published artifact's arena,
// verbatim. The unpublished observation reaches the wire only with the
// next RebuildCache, exactly as it reaches the lookups.
func TestFlatEncodeWithoutSnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomTrainedGraph(rng, 10)
	g.RebuildCache()
	var a bytes.Buffer
	if err := g.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), g.Artifact().Bytes()) {
		t.Fatal("Encode did not write the published arena")
	}
	src, dst := g.nodes[0], uint64(0)
	for i := range g.succs {
		if len(g.succs[i]) > 0 {
			src, dst = g.nodes[i], g.succs[i][0]
			break
		}
	}
	if !g.Observe(src, dst, 0xfeed) {
		t.Fatal("fixture graph has no edge to observe")
	}
	var b bytes.Buffer
	if err := g.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("an unpublished observation reached the encoded artifact")
	}
	g.RebuildCache()
	var c bytes.Buffer
	if err := g.Encode(&c); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c.Bytes()) {
		t.Fatal("RebuildCache did not publish the new observation to Encode")
	}
}

// TestLoadFlatRejects corrupts a valid arena one field at a time; every
// mutation must be rejected (the canonical-form guarantee rests on it).
func TestLoadFlatRejects(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := randomTrainedGraph(rng, 12)
	g.RebuildCache()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := LoadFlat(good); err != nil {
		t.Fatalf("valid arena rejected: %v", err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := LoadFlat(b); err == nil {
			t.Errorf("%s: corrupt arena accepted", name)
		}
	}
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	mutate("truncated", func(b []byte) []byte { return b[:len(b)-1] })
	mutate("extended", func(b []byte) []byte { return append(b, 0) })
	mutate("node count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[8:], binary.LittleEndian.Uint64(b[8:])+1)
		return b
	})
	mutate("huge count", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[16:], 1<<40)
		return b
	})
	mutate("unsorted nodes", func(b []byte) []byte {
		// Swap two eytzinger slots: the in-order walk stops ascending.
		e := b[flatHeaderSize:]
		for i := 0; i < 8; i++ {
			e[i], e[8+i] = e[8+i], e[i]
		}
		return b
	})
	mutate("short", func(b []byte) []byte { return b[:flatHeaderSize-1] })
}

// TestFlatEmptyGraph pins the degenerate cases: zero nodes, and nodes
// with no edges.
func TestFlatEmptyGraph(t *testing.T) {
	g := &Graph{}
	g.RebuildCache()
	var buf bytes.Buffer
	if err := g.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 0 || g2.Edges != 0 {
		t.Fatalf("empty graph round-trip: got %d nodes %d edges", g2.NumNodes(), g2.Edges)
	}
	if l := g2.Lookup(1, 2, 3); l.Exists {
		t.Fatal("lookup on empty graph reported an edge")
	}
	if hit, _ := g2.Artifact().CacheLookup(1, 2, 3); hit {
		t.Fatal("cache lookup on empty graph reported a hit")
	}
}

// FuzzFlatITCRoundTrip feeds arbitrary bytes to LoadFlat; accepted input
// must be canonical (decode → re-encode reproduces it exactly) and must
// never panic, which is the whole safety story for loading shipped
// artifacts.
func FuzzFlatITCRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 3, 17} {
		g := randomTrainedGraph(rng, 1+n)
		g.RebuildCache()
		var buf bytes.Buffer
		if err := g.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(flatMagic))
	f.Fuzz(func(t *testing.T, data []byte) {
		fl, err := LoadFlat(data)
		if err != nil {
			return
		}
		g := graphFromFlat(fl)
		var out bytes.Buffer
		if err := g.Encode(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input not canonical: %d in, %d out", len(data), out.Len())
		}
	})
}

package itc

import "sort"

// Path-sensitive labeling: the paper's future-work extension (§7.1.2,
// "we can also make the fast path more context-sensitive by matching the
// high-credit paths, each of which consisting of multiple consecutive
// high-credit edges"). Training records the observed pairs of
// consecutive ITC edges; at runtime a window whose edge pairs were never
// seen together is suspicious even if each edge is individually
// high-credit, which defeats attacks stitching individually-trained
// edges into novel orders — at the price of more slow-path escalations.

// PathKey hashes one consecutive-edge pair (a->b, b->c).
//
//fg:hotpath
func PathKey(a, b, c uint64) uint64 {
	h := uint64(0xcbf29ce484222325)
	for _, v := range [3]uint64{a, b, c} {
		h = (h ^ v) * 0x100000001b3
	}
	return h
}

// ObservePath records one consecutive-edge pair during training.
func (g *Graph) ObservePath(a, b, c uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.paths == nil {
		g.paths = make(map[uint64]struct{})
	}
	g.paths[PathKey(a, b, c)] = struct{}{}
}

// PathTrained reports whether the consecutive-edge pair was observed in
// training and published. Lock-free, like Lookup.
//
//fg:hotpath
func (g *Graph) PathTrained(a, b, c uint64) bool {
	return g.art.Load().PathTrained(PathKey(a, b, c))
}

// NumPaths returns the number of distinct trained edge pairs.
func (g *Graph) NumPaths() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.paths)
}

// CreditAtLeast reports whether the edge was observed at least minCount
// times in training — the multi-occurrence credit levels §4.3 sketches
// ("one can use more than two levels of credit values to label the
// edges, based on their number of occurrences").
func (g *Graph) CreditAtLeast(src, dst uint64, minCount uint32) bool {
	i, ok := g.nodeIndex(src)
	if !ok {
		return false
	}
	j, ok := g.edgeIndex(i, dst)
	if !ok {
		return false
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.meta[i][j].count >= minCount
}

// CreditHistogram buckets edges by observation count (diagnostics for
// the multi-level labeling policy).
func (g *Graph) CreditHistogram() map[uint32]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	hist := make(map[uint32]int)
	for i := range g.meta {
		for j := range g.meta[i] {
			hist[bucketCount(g.meta[i][j].count)]++
		}
	}
	return hist
}

func bucketCount(c uint32) uint32 {
	switch {
	case c == 0:
		return 0
	case c == 1:
		return 1
	case c < 10:
		return 2
	case c < 100:
		return 10
	default:
		return 100
	}
}

// TopEdges returns up to n edges by observation count, for reporting.
type EdgeCount struct {
	Src, Dst uint64
	Count    uint32
}

// TopEdges lists the n most frequently trained edges.
func (g *Graph) TopEdges(n int) []EdgeCount {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var all []EdgeCount
	for i := range g.meta {
		for j := range g.meta[i] {
			if c := g.meta[i][j].count; c > 0 {
				all = append(all, EdgeCount{Src: g.nodes[i], Dst: g.succs[i][j], Count: c})
			}
		}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Count != all[b].Count {
			return all[a].Count > all[b].Count
		}
		return all[a].Src < all[b].Src
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

package itc

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

// NumPaths returns the number of distinct trained edge pairs.
func (g *Graph) NumPaths() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.paths)
}

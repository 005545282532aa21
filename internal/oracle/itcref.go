package oracle

import (
	"maps"
	"sort"

	"flowguard/internal/cfg"
)

// edge is an (IT-BB, target) pair.
type edge struct{ src, dst uint64 }

// Ref is the naive reference ITC-CFG: the same graph the production
// itc.FromCFG derives, rebuilt here with maps, per-query scans, and a
// sequential breadth-first search. Training labels (credit counts and
// TNT signature sets) live in plain maps, and path-sensitive triples are
// stored as exact 3-tuples rather than hashes. Like the production
// graph, lookups answer from the labels as of the last Rebuild: an
// observation becomes visible when it is published.
type Ref struct {
	nodes map[uint64]bool
	edges map[edge]bool
	// trained accumulates observations; pub is the copy Rebuild last
	// published, the one lookups read.
	trained, pub labels

	// gen counts label rebuilds; the oracle's approval store keys its
	// validity on it, mirroring the production generation counter.
	gen uint64
}

// labels is one set of training labels.
type labels struct {
	counts map[edge]uint32
	sigs   map[edge]map[uint64]bool
	paths  map[[3]uint64]bool
}

// clone deep-copies the labels (nil maps come back empty).
func (l labels) clone() labels {
	out := labels{
		counts: make(map[edge]uint32, len(l.counts)),
		sigs:   make(map[edge]map[uint64]bool, len(l.sigs)),
		paths:  make(map[[3]uint64]bool, len(l.paths)),
	}
	maps.Copy(out.counts, l.counts)
	maps.Copy(out.paths, l.paths)
	for e, set := range l.sigs {
		out.sigs[e] = maps.Clone(set)
	}
	return out
}

// NewRef derives the reference ITC-CFG from the static O-CFG: the nodes
// are the indirectly targetable basic blocks, and each node's successors
// are every indirect-edge target reachable from it through direct edges
// only.
func NewRef(g *cfg.Graph) *Ref {
	r := &Ref{
		nodes: make(map[uint64]bool),
		edges: make(map[edge]bool),
	}
	r.trained = r.trained.clone()
	r.pub = r.trained.clone()
	for _, b := range g.Blocks {
		for _, t := range b.IndTargets {
			r.nodes[t] = true
		}
	}
	// Blocks keyed by their start address; the reachability walk only
	// ever continues from exact block entries.
	starts := make(map[uint64]*cfg.Block, len(g.Blocks))
	for _, b := range g.Blocks {
		starts[b.Start] = b
	}
	for n := range r.nodes {
		visited := make(map[uint64]bool)
		queue := []uint64{n}
		for len(queue) > 0 {
			addr := queue[0]
			queue = queue[1:]
			if visited[addr] {
				continue
			}
			visited[addr] = true
			blk := starts[addr]
			if blk == nil {
				continue
			}
			switch blk.Kind {
			case cfg.TermIndCall, cfg.TermIndJmp, cfg.TermRet:
				for _, t := range blk.IndTargets {
					r.edges[edge{n, t}] = true
				}
			case cfg.TermFall, cfg.TermJmp, cfg.TermCall, cfg.TermSyscall:
				queue = append(queue, blk.Next)
			case cfg.TermCond:
				queue = append(queue, blk.Taken, blk.Fall)
			}
		}
	}
	return r
}

// HasNode reports whether addr is an indirectly targetable block entry.
func (r *Ref) HasNode(addr uint64) bool { return r.nodes[addr] }

// NumNodes returns the node count (cross-check against the production
// graph).
func (r *Ref) NumNodes() int { return len(r.nodes) }

// EdgeCount returns the total number of reference edges.
func (r *Ref) EdgeCount() int { return len(r.edges) }

// Edges lists every (src, dst) pair, sorted, for cross-checking against
// the production graph.
func (r *Ref) Edges() [][2]uint64 {
	out := make([][2]uint64, 0, len(r.edges))
	for e := range r.edges {
		out = append(out, [2]uint64{e.src, e.dst})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// ObserveTrace trains the reference labels from one raw benign trace:
// the batch parse of the stream yields the TIP records, and every
// consecutive pair that is a graph edge gains credit and its TNT
// signature; consecutive triples train the path store unconditionally
// (mirroring the production ObserveWindow contract).
func (r *Ref) ObserveTrace(raw []byte) error {
	pkts, _, err := parse(nil, raw, 0, false)
	if err != nil {
		return err
	}
	r.observeRecords(extractRecords(pkts))
	return nil
}

func (r *Ref) observeRecords(recs []tipRec) {
	for i := 0; i+1 < len(recs); i++ {
		r.Observe(recs[i].IP, recs[i+1].IP, recs[i+1].Sig)
		if i+2 < len(recs) {
			r.ObservePath(recs[i].IP, recs[i+1].IP, recs[i+2].IP)
		}
	}
}

// Rebuild publishes the trained labels — a copy, so later observations
// stay invisible until the next Rebuild — and advances the generation.
func (r *Ref) Rebuild() {
	r.pub = r.trained.clone()
	r.gen++
}

// Gen returns the label generation.
func (r *Ref) Gen() uint64 { return r.gen }

// Lookup classifies one observed transfer for external conformance
// checks: whether the edge is in the graph at all, its credit count, and
// whether the observed TNT signature was seen in training. Identical to
// the unexported probe the differential oracle uses internally.
func (r *Ref) Lookup(src, dst, sig uint64) (exists bool, count uint32, sigOK bool) {
	return r.lookup(src, dst, sig)
}

// Observe trains one edge with one TNT signature, exactly as a benign
// trace containing the consecutive pair would. It reports whether the
// edge exists in the reference graph.
func (r *Ref) Observe(src, dst, sig uint64) bool {
	e := edge{src, dst}
	if !r.edges[e] {
		return false
	}
	r.trained.counts[e]++
	set := r.trained.sigs[e]
	if set == nil {
		set = make(map[uint64]bool)
		r.trained.sigs[e] = set
	}
	set[sig] = true
	return true
}

// ObservePath trains one consecutive-edge triple.
func (r *Ref) ObservePath(a, b, c uint64) {
	r.trained.paths[[3]uint64{a, b, c}] = true
}

// PathObserved reports whether the triple was trained and published.
func (r *Ref) PathObserved(a, b, c uint64) bool { return r.pathTrained(a, b, c) }

// lookup classifies one observed transfer: whether the edge is in the
// graph at all, its credit count, and whether the observed TNT signature
// was seen in training (a stored long-run wildcard matches anything).
func (r *Ref) lookup(src, dst, sig uint64) (exists bool, count uint32, sigOK bool) {
	e := edge{src, dst}
	if !r.edges[e] {
		return false, 0, false
	}
	count = r.pub.counts[e]
	if count > 0 {
		set := r.pub.sigs[e]
		sigOK = set[sig] || set[tntSigLongRun]
	}
	return true, count, sigOK
}

// pathTrained reports whether the consecutive-edge triple was observed
// in training and published.
func (r *Ref) pathTrained(a, b, c uint64) bool {
	return r.pub.paths[[3]uint64{a, b, c}]
}

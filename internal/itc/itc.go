// Package itc implements the paper's central data structure: the
// indirect-targets-connected CFG (ITC-CFG, §4.2), plus the credit and TNT
// labeling that the fuzzing training phase attaches to its edges (§4.3)
// and the AIA metrics of Table 4.
//
// # Construction
//
// The O-CFG's direct edges are collapsed: the nodes of the ITC-CFG are
// the basic blocks targeted by at least one indirect edge (IT-BBs,
// identified by their entry address), and an edge x→y exists iff
// execution can flow from the entry of x through zero or more direct
// edges and then one indirect edge landing at the entry of y. That is
// exactly the condition under which IPT emits the consecutive packets
// TIP(x), TIP(y), so a TIP stream can be searched directly on this graph
// with no binary decoding (the correctness argument of §4.2).
//
// # Labeling
//
// Training replays traced executions and marks each observed edge with a
// high credit and the signature of the TNT run (conditional-branch
// outcomes) seen between the two TIPs. The TNT signatures restore the
// precision that collapsing direct conditional forks lost (the AIA
// derogation of Figure 4): an attacker constrained to high-credit edges
// with trained TNT runs faces roughly O-CFG-level AIA instead of the
// inflated ITC level.
package itc

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"flowguard/internal/cfg"
	"flowguard/internal/trace/ipt"
)

// edgeMeta carries the training labels of one edge.
type edgeMeta struct {
	// count is the number of times training observed the edge; >0 means
	// high credit under the paper's binary labeling.
	count uint32
	// sigs lists the distinct TNT-run signatures observed, sorted.
	sigs []uint64
}

// Graph is the credit-labeled ITC-CFG.
//
// Concurrency: the graph topology (nodes, succs) is immutable after
// construction. The training labels are mutable and private to training:
// checkers never read them. RebuildCache publishes them as an immutable
// Artifact; Lookup and the artifact's CacheLookup and PathTrained answer
// from the currently published artifact, lock-free — the checker-facing hot path
// never contends even with many guards checking in parallel (the §6
// offloaded-checking shape). A label therefore becomes visible to
// checkers when it is published, not when it is observed. Every graph
// starts with a published artifact of its (untrained) labels.
type Graph struct {
	// nodes holds the IT-BB entry addresses, sorted ascending.
	// Immutable after construction.
	nodes []uint64
	// succs[i] holds the sorted target addresses of nodes[i]. Immutable
	// after construction.
	succs [][]uint64
	// meta[i][j] labels the edge nodes[i] -> succs[i][j]. Guarded by mu.
	meta [][]edgeMeta

	// Edges is the total edge count (|E| of Table 4).
	Edges int

	// mu guards meta and paths (the training side).
	mu sync.RWMutex

	// art is the published label artifact the checker-facing lookups
	// read; RebuildCache replaces it. Never nil after construction.
	art atomic.Pointer[Artifact]

	// paths holds the trained consecutive-edge pairs for the optional
	// path-sensitive fast path (see paths.go).
	paths map[uint64]struct{}
}

// FromCFG builds the unlabeled ITC-CFG from a conservative O-CFG by
// collapsing direct edges (§4.2).
func FromCFG(g *cfg.Graph) *Graph {
	// IT-BBs: every target of an indirect edge.
	nodeSet := make(map[uint64]bool)
	for _, b := range g.Blocks {
		for _, t := range b.IndTargets {
			nodeSet[t] = true
		}
	}
	nodes := make([]uint64, 0, len(nodeSet))
	for a := range nodeSet {
		nodes = append(nodes, a)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	out := &Graph{nodes: nodes, succs: make([][]uint64, len(nodes)), meta: make([][]edgeMeta, len(nodes))}
	// For each IT-BB, find every indirect edge reachable through direct
	// edges only. The per-node BFS instances are independent, so the
	// construction fans out across the CPUs (the paper amortizes its
	// seven-minute generation by caching library CFGs; we also simply
	// parallelize).
	workers := runtime.GOMAXPROCS(0)
	if workers > len(nodes) {
		workers = len(nodes)
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	worker := func() {
		defer wg.Done()
		var queue []uint64
		for i := range next {
			visited := map[uint64]bool{}
			targets := map[uint64]bool{}
			queue = append(queue[:0], nodes[i])
			for len(queue) > 0 {
				addr := queue[len(queue)-1]
				queue = queue[:len(queue)-1]
				if visited[addr] {
					continue
				}
				visited[addr] = true
				blk, ok := g.BlockAt(addr)
				if !ok {
					continue
				}
				if blk.HasIndirectTerm() {
					for _, t := range blk.IndTargets {
						targets[t] = true
					}
					continue
				}
				queue = blk.DirectSuccs(queue)
			}
			ts := make([]uint64, 0, len(targets))
			for t := range targets {
				ts = append(ts, t)
			}
			sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
			out.succs[i] = ts
			out.meta[i] = make([]edgeMeta, len(ts))
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go worker()
	}
	for i := range nodes {
		next <- i
	}
	close(next)
	wg.Wait()
	for i := range out.succs {
		out.Edges += len(out.succs[i])
	}
	out.RebuildCache()
	return out
}

// NumNodes returns |V| of Table 4.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Nodes returns the IT-BB entry addresses in ascending order.
func (g *Graph) Nodes() []uint64 { return g.nodes }

// searchU64 is sort.SearchInts for []uint64, inlined for the lookup hot
// path: sort.Search takes the predicate as a func value, which forces a
// closure allocation per call at the capture sites. The lookups below
// run per TIP pair per check, so they use this instead; training-time
// code (Observe) keeps sort.Search.
//
//fg:hotpath
func searchU64(a []uint64, x uint64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nodeIndex binary-searches the sorted node array (§5.3).
//
//fg:hotpath
func (g *Graph) nodeIndex(addr uint64) (int, bool) {
	i := searchU64(g.nodes, addr)
	if i < len(g.nodes) && g.nodes[i] == addr {
		return i, true
	}
	return 0, false
}

// HasNode reports whether addr is an IT-BB entry.
func (g *Graph) HasNode(addr uint64) bool {
	_, ok := g.nodeIndex(addr)
	return ok
}

// edgeIndex locates dst in the sorted successor array of node i.
//
//fg:hotpath
func (g *Graph) edgeIndex(i int, dst uint64) (int, bool) {
	ts := g.succs[i]
	j := searchU64(ts, dst)
	if j < len(ts) && ts[j] == dst {
		return j, true
	}
	return 0, false
}

// HasEdge reports whether the ITC-CFG contains src -> dst: the fast
// path's first check (two binary searches, §5.3).
func (g *Graph) HasEdge(src, dst uint64) bool {
	i, ok := g.nodeIndex(src)
	if !ok {
		return false
	}
	_, ok = g.edgeIndex(i, dst)
	return ok
}

// EdgeLabel describes the training labels of one edge for the fast
// path's credibility assessment.
type EdgeLabel struct {
	// Exists reports graph membership.
	Exists bool
	// HighCredit reports the edge was observed during training.
	HighCredit bool
	// SigMatch reports the presented TNT-run signature was observed on
	// this edge during training (meaningful only when HighCredit).
	SigMatch bool
	// Count is the number of training observations.
	Count uint32
}

// Lookup performs the full fast-path edge check against the published
// labels: membership, credit, and TNT-signature match. Lock-free.
//
//fg:hotpath per-TIP-pair on every check
func (g *Graph) Lookup(src, dst uint64, sig uint64) EdgeLabel {
	return g.art.Load().Lookup(src, dst, sig)
}

// Observe marks the edge as trained with the given TNT-run signature,
// incrementing its occurrence count. It reports whether the edge exists
// in the graph (an observation outside the graph would mean the
// conservative construction missed real flow — callers treat that as a
// bug).
func (g *Graph) Observe(src, dst uint64, sig uint64) bool {
	i, ok := g.nodeIndex(src)
	if !ok {
		return false
	}
	j, ok := g.edgeIndex(i, dst)
	if !ok {
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	m := &g.meta[i][j]
	m.count++
	k := sort.Search(len(m.sigs), func(k int) bool { return m.sigs[k] >= sig })
	if k < len(m.sigs) && m.sigs[k] == sig {
		return true
	}
	m.sigs = append(m.sigs, 0)
	copy(m.sigs[k+1:], m.sigs[k:])
	m.sigs[k] = sig
	return true
}

// ObserveWindow labels everything a training trace window provides: the
// consecutive-TIP edges with their TNT signatures, and the
// consecutive-edge pairs for the optional path-sensitive mode. It
// returns false if any pair fell outside the graph (a construction bug:
// §4.2 guarantees containment for legitimate traces).
func (g *Graph) ObserveWindow(tips []ipt.TIPRecord) bool {
	ok := true
	for i := 0; i+1 < len(tips); i++ {
		if !g.Observe(tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig) {
			ok = false
		}
		if i+2 < len(tips) {
			g.ObservePath(tips[i].IP, tips[i+1].IP, tips[i+2].IP)
		}
	}
	return ok
}

// RebuildCache publishes the training labels: it regenerates the flat
// lookup tables — the full labeled graph and the §5.3 separate
// high-credit memory — and stores them as the graph's new Artifact, one
// label generation after the previous one. The flat arenas own their
// storage, so later in-place label mutation cannot alias into a
// published artifact.
func (g *Graph) RebuildCache() {
	g.mu.Lock()
	defer g.mu.Unlock()
	var gen uint64
	if prev := g.art.Load(); prev != nil {
		gen = prev.gen
	}
	g.art.Store(&Artifact{
		full: g.buildFlatLocked(false),
		high: g.buildFlatLocked(true),
		gen:  gen + 1,
	})
}

// CredStats summarizes credit labeling after training.
type CredStats struct {
	Edges      int
	HighCredit int
	// Ratio is the fraction of edges with high credit.
	Ratio float64
	// Sigs is the total number of distinct (edge, TNT signature) pairs.
	Sigs int
}

// Credits computes labeling statistics (Figure 5(d)'s cred-ratio series
// uses the runtime-weighted variant in the guard; this is the static
// one).
func (g *Graph) Credits() CredStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var s CredStats
	s.Edges = g.Edges
	for i := range g.meta {
		for j := range g.meta[i] {
			if g.meta[i][j].count > 0 {
				s.HighCredit++
				s.Sigs += len(g.meta[i][j].sigs)
			}
		}
	}
	if s.Edges > 0 {
		s.Ratio = float64(s.HighCredit) / float64(s.Edges)
	}
	return s
}

// AIA computes the plain ITC-CFG average-indirect-targets-allowed: the
// mean out-degree over nodes with at least one outgoing edge. This is the
// coarsened figure that exceeds the O-CFG AIA (the derogation of §4.3).
func (g *Graph) AIA() float64 {
	total, n := 0, 0
	for _, ts := range g.succs {
		if len(ts) == 0 {
			continue
		}
		total += len(ts)
		n++
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// AIAWithTNT computes the effective AIA when trained TNT signatures
// disambiguate targets: for each node, targets are partitioned by
// observed signature, and the attacker constrained to trained runs sees
// only the targets sharing a signature. Untrained edges are excluded
// (they route to the slow path).
func (g *Graph) AIAWithTNT() float64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var total float64
	n := 0
	for i := range g.succs {
		perSig := make(map[uint64]int)
		edges := 0
		for j := range g.succs[i] {
			m := &g.meta[i][j]
			if m.count == 0 {
				continue
			}
			edges++
			for _, s := range m.sigs {
				perSig[s]++
			}
		}
		if edges == 0 || len(perSig) == 0 {
			continue
		}
		sum := 0
		for _, c := range perSig {
			sum += c
		}
		total += float64(sum) / float64(len(perSig))
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// FineGrainedAIA computes the slow-path AIA of Table 4's FlowGuard
// column: forward edges stay TypeArmor-restricted (the O-CFG site sets)
// while backward edges collapse to the shadow stack's single target.
func FineGrainedAIA(g *cfg.Graph) float64 {
	if len(g.Sites) == 0 {
		return 0
	}
	total := 0
	for _, s := range g.Sites {
		if s.Kind == cfg.SiteRet {
			total++ // shadow stack: exactly one valid target
			continue
		}
		total += len(s.Targets)
	}
	return float64(total) / float64(len(g.Sites))
}

// MemoryBytes estimates the resident size of the labeled graph (Table 5's
// memory-usage column): node and target arrays, metadata, and the
// high-credit cache.
func (g *Graph) MemoryBytes() uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var b uint64
	b += uint64(len(g.nodes)) * 8
	for i := range g.succs {
		b += uint64(len(g.succs[i])) * 8
		b += uint64(len(g.meta[i])) * 16 // count + slice header amortized
		for j := range g.meta[i] {
			b += uint64(len(g.meta[i][j].sigs)) * 8
		}
	}
	b += uint64(g.art.Load().high.Size())
	return b
}

func (g *Graph) String() string {
	return fmt.Sprintf("ITC-CFG{|V|=%d |E|=%d}", len(g.nodes), g.Edges)
}

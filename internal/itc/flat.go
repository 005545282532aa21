package itc

import (
	"encoding/binary"
	"fmt"

	"flowguard/internal/trace/ipt"
)

// Flat is the cache-line-conscious form of the labeled ITC-CFG: every
// table the checker-facing lookups touch laid out as a contiguous
// array, addressed by offset instead of pointer. The layout serves two
// masters at once:
//
//   - The hot path. The node index is stored in eytzinger (BFS) order, so
//     the first four levels of every search share one cache line and deeper
//     levels prefetch predictably — the slices-of-slices form paid a
//     dependent pointer load per node level. Successor lists, edge counts,
//     TNT-signature sets and trained path keys are flat arrays located by
//     offset arithmetic, never by chasing slice headers. The lookups run
//     over typed []uint64 / []uint32 views (direct word loads, bounds
//     checks the compiler can hoist), materialized once when the Flat is
//     built or loaded.
//
//   - Serialization. The byte arena IS the wire format (§3.3's
//     distributable training artifact): Encode writes the bytes out
//     verbatim and LoadFlat validates them in one pass, so a trained
//     graph ships and loads with no per-record marshaling on either side.
//
// Layout (all fields little-endian):
//
//	magic    8  "FGITCFL1"
//	header   32 nNodes, nEdges, nSigs, nPaths (u64 each)
//	eytz     nNodes*8   node addresses, eytzinger order (root 0, children
//	                    of slot k at 2k+1 / 2k+2; in-order = ascending)
//	ref      nNodes*8   per eytz slot: first-edge index (low u32) and
//	                    out-degree (high u32); edges are grouped by slot,
//	                    so the starts are the prefix sums in slot order
//	succ     nEdges*8   successor addresses, ascending within each node
//	cnt      nEdges*4   training observation count per edge
//	sigIdx   (nEdges+1)*4  prefix sums into sig
//	sig      nSigs*8    TNT signatures, ascending within each edge
//	path     nPaths*8   trained PathKey values, ascending
//
// Every degree of freedom is pinned by LoadFlat's validation, so a byte
// string either fails to load or is exactly what encoding the decoded
// graph would produce: Encode∘Decode is the identity on accepted input.
type Flat struct {
	data []byte // canonical serialized form

	nNodes int
	nEdges int

	// Typed views of the sections, decoded once at build/load time; the
	// hot lookups index these directly.
	eytz   []uint64
	ref    []uint64
	succ   []uint64
	cnt    []uint32
	sigIdx []uint32
	sig    []uint64
	path   []uint64
}

// flatMagic identifies the format; the trailing 1 is the version.
const flatMagic = "FGITCFL1"

const flatHeaderSize = len(flatMagic) + 4*8

// findNode locates addr in the eytzinger index and returns its slot.
//
//fg:hotpath
func (f *Flat) findNode(addr uint64) (int, bool) {
	eytz := f.eytz
	k := 0
	for k < len(eytz) {
		v := eytz[k]
		if v == addr {
			return k, true
		}
		if addr < v {
			k = 2*k + 1
		} else {
			k = 2*k + 2
		}
	}
	return 0, false
}

// findEdge locates the edge src->dst and returns its index in the edge
// arenas.
//
//fg:hotpath
func (f *Flat) findEdge(src, dst uint64) (int, bool) {
	k, ok := f.findNode(src)
	if !ok {
		return 0, false
	}
	r := f.ref[k]
	lo := int(uint32(r))
	end := lo + int(uint32(r>>32))
	succ := f.succ
	// Indirect-branch out-degrees are tiny (typically 1-4): a forward
	// scan beats binary-search branch mispredicts there, and the list is
	// one cache line anyway. Large fan-out nodes still get the search.
	if end-lo <= flatLinearScanMax {
		for i := lo; i < end; i++ {
			v := succ[i]
			if v == dst {
				return i, true
			}
			if v > dst {
				break
			}
		}
		return 0, false
	}
	hi := end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if succ[mid] < dst {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && succ[lo] == dst {
		return lo, true
	}
	return 0, false
}

// flatLinearScanMax is the run length (one cache line of u64s) below
// which the flat lookups scan forward instead of binary-searching.
const flatLinearScanMax = 8

// sigMatch checks sig against the trained signature set of edge e. An
// edge trained with the long-run wildcard is TNT-polymorphic: its
// conditional runs are data-dependent loop trip counts, which TNT
// labeling cannot disambiguate (the ITC-CFG deliberately avoids path
// explosion, §4.2), so any presented run is accepted for it. Short-run
// edges — the Figure 4 forks the labels exist for — still require an
// exact match.
//
//fg:hotpath
func (f *Flat) sigMatch(e int, sig uint64) bool {
	lo := int(f.sigIdx[e])
	hi := int(f.sigIdx[e+1])
	s := f.sig
	// Trained signature sets are almost always a handful of entries: one
	// pass tests the exact signature and the long-run wildcard together,
	// where two binary searches would pay their branches twice.
	if hi-lo <= flatLinearScanMax {
		for i := lo; i < hi; i++ {
			v := s[i]
			if v == sig || v == ipt.TNTSigLongRun {
				return true
			}
		}
		return false
	}
	if sigSearch(s, lo, hi, sig) {
		return true
	}
	return sigSearch(s, lo, hi, ipt.TNTSigLongRun)
}

// sigSearch binary-searches entries [lo, hi) of s for x.
//
//fg:hotpath
func sigSearch(s []uint64, lo, hi int, x uint64) bool {
	end := hi
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < end && s[lo] == x
}

// Lookup is the flat form of Graph.Lookup: membership, credit, and
// TNT-signature match in one pass over the arena.
//
//fg:hotpath
func (f *Flat) Lookup(src, dst, sig uint64) EdgeLabel {
	e, ok := f.findEdge(src, dst)
	if !ok {
		return EdgeLabel{}
	}
	count := f.cnt[e]
	l := EdgeLabel{Exists: true, HighCredit: count > 0, Count: count}
	if l.HighCredit {
		l.SigMatch = f.sigMatch(e, sig)
	}
	return l
}

// CacheLookup is the flat form of the high-credit cache probe: on a Flat
// built highOnly, every present edge is trained, so presence is the hit.
//
//fg:hotpath
func (f *Flat) CacheLookup(src, dst, sig uint64) (hit, sigMatch bool) {
	e, ok := f.findEdge(src, dst)
	if !ok {
		return false, false
	}
	return true, f.sigMatch(e, sig)
}

// PathTrained reports whether the PathKey value was recorded in training
// (binary search on the sorted path section).
//
//fg:hotpath
func (f *Flat) PathTrained(key uint64) bool {
	path := f.path
	lo, hi := 0, len(path)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if path[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(path) && path[lo] == key
}

// Bytes returns the backing arena: the serialized form of the graph. The
// slice aliases the Flat's storage and must not be modified.
func (f *Flat) Bytes() []byte { return f.data }

// Size returns the size of the serialized arena in bytes. The resident
// footprint is roughly twice this: the canonical bytes plus the typed
// lookup views decoded from them.
func (f *Flat) Size() int { return len(f.data) }

// eytzFill places sorted[*next], advancing it, at slot k and recursively
// below, producing the eytzinger permutation whose in-order walk is the
// sorted order.
func eytzFill(dst []byte, n int, k int, sorted []uint64, next *int) {
	if k >= n {
		return
	}
	eytzFill(dst, n, 2*k+1, sorted, next)
	binary.LittleEndian.PutUint64(dst[k*8:], sorted[*next])
	*next++
	eytzFill(dst, n, 2*k+2, sorted, next)
}

// eytzSlots returns the eytzinger slot of each sorted position: the
// inverse walk of eytzFill.
func eytzSlots(n int) []int {
	slots := make([]int, 0, n)
	var walk func(k int)
	walk = func(k int) {
		if k >= n {
			return
		}
		walk(2*k + 1)
		slots = append(slots, k)
		walk(2*k + 2)
	}
	walk(0)
	return slots
}

// buildFlatLocked lays the labeled graph out as a Flat arena. Callers
// hold g.mu (the label fields are read). With highOnly set, only edges
// with a positive training count — and only nodes retaining at least one
// such edge — are emitted: the §5.3 separate high-credit memory.
func (g *Graph) buildFlatLocked(highOnly bool) *Flat {
	// Select nodes and count the sections.
	type nodeSel struct {
		addr  uint64
		idx   int // index into g.nodes
		edges []int
	}
	sel := make([]nodeSel, 0, len(g.nodes))
	nEdges, nSigs := 0, 0
	for i, addr := range g.nodes {
		var edges []int
		for j := range g.succs[i] {
			if highOnly && g.meta[i][j].count == 0 {
				continue
			}
			edges = append(edges, j)
			nSigs += len(g.meta[i][j].sigs)
		}
		if highOnly && len(edges) == 0 {
			continue
		}
		sel = append(sel, nodeSel{addr: addr, idx: i, edges: edges})
		nEdges += len(edges)
	}
	n := len(sel)

	var paths []uint64
	if !highOnly {
		paths = make([]uint64, 0, len(g.paths))
		for p := range g.paths {
			paths = append(paths, p)
		}
		sortU64(paths)
	}

	size := flatHeaderSize + n*8 + n*8 + nEdges*8 + nEdges*4 + (nEdges+1)*4 + nSigs*8 + len(paths)*8
	data := make([]byte, size)
	copy(data, flatMagic)
	hdr := data[len(flatMagic):]
	binary.LittleEndian.PutUint64(hdr[0:], uint64(n))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(nEdges))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(nSigs))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(paths)))

	secEytz, secRef, secSucc, secCnt, secSigIdx, secSig, secPath := flatSections(data, n, nEdges, nSigs, len(paths))

	sorted := make([]uint64, n)
	for i, s := range sel {
		sorted[i] = s.addr
	}
	next := 0
	eytzFill(secEytz, n, 0, sorted, &next)

	// Edges are grouped by eytzinger slot: walk the slots of the sorted
	// positions and emit each node's edge block at the running offset.
	slots := eytzSlots(n)
	// slotOf[k] = sorted position occupying slot k.
	slotOf := make([]int, n)
	for pos, k := range slots {
		slotOf[k] = pos
	}
	e := 0 // running edge index
	sg := 0
	binary.LittleEndian.PutUint32(secSigIdx[0:], 0)
	for k := 0; k < n; k++ {
		s := sel[slotOf[k]]
		binary.LittleEndian.PutUint64(secRef[k*8:], uint64(e)|uint64(len(s.edges))<<32)
		for _, j := range s.edges {
			m := &g.meta[s.idx][j]
			binary.LittleEndian.PutUint64(secSucc[e*8:], g.succs[s.idx][j])
			binary.LittleEndian.PutUint32(secCnt[e*4:], m.count)
			for _, sv := range m.sigs {
				binary.LittleEndian.PutUint64(secSig[sg*8:], sv)
				sg++
			}
			e++
			binary.LittleEndian.PutUint32(secSigIdx[e*4:], uint32(sg))
		}
	}
	for i, p := range paths {
		binary.LittleEndian.PutUint64(secPath[i*8:], p)
	}
	return sliceFlat(data, n, nEdges, nSigs, len(paths))
}

// flatSections carves the raw byte sections out of a correctly-sized
// arena.
func flatSections(data []byte, nNodes, nEdges, nSigs, nPaths int) (eytz, ref, succ, cnt, sigIdx, sig, path []byte) {
	b := data[flatHeaderSize:]
	cut := func(n int) []byte {
		s := b[:n:n]
		b = b[n:]
		return s
	}
	eytz = cut(nNodes * 8)
	ref = cut(nNodes * 8)
	succ = cut(nEdges * 8)
	cnt = cut(nEdges * 4)
	sigIdx = cut((nEdges + 1) * 4)
	sig = cut(nSigs * 8)
	path = cut(nPaths * 8)
	return
}

// u64Section decodes a little-endian u64 section into a typed view.
func u64Section(b []byte) []uint64 {
	out := make([]uint64, len(b)/8)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[i*8:])
	}
	return out
}

// u32Section decodes a little-endian u32 section into a typed view.
func u32Section(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[i*4:])
	}
	return out
}

// sliceFlat adopts a correctly-sized arena and decodes the typed views
// the hot lookups run over.
func sliceFlat(data []byte, nNodes, nEdges, nSigs, nPaths int) *Flat {
	eytz, ref, succ, cnt, sigIdx, sig, path := flatSections(data, nNodes, nEdges, nSigs, nPaths)
	return &Flat{
		data:   data,
		nNodes: nNodes,
		nEdges: nEdges,
		eytz:   u64Section(eytz),
		ref:    u64Section(ref),
		succ:   u64Section(succ),
		cnt:    u32Section(cnt),
		sigIdx: u32Section(sigIdx),
		sig:    u64Section(sig),
		path:   u64Section(path),
	}
}

// flatLimit bounds each header count; far above any real graph, low
// enough that the section-size arithmetic cannot overflow.
const flatLimit = 1 << 31

// LoadFlat validates data as a serialized labeled ITC-CFG and adopts it
// (the caller must not modify data afterwards; the typed lookup views
// are decoded from it in one pass). The validation pins every encoding
// choice: section sizes must account for the input exactly, the node
// index must be the eytzinger permutation of a strictly ascending
// address set, edge blocks must be contiguous in slot order with
// ascending successors and ascending per-edge signature sets, and path
// keys must ascend. Accepted input is therefore canonical: re-encoding
// the decoded graph reproduces data byte for byte.
func LoadFlat(data []byte) (*Flat, error) {
	if len(data) < flatHeaderSize || string(data[:len(flatMagic)]) != flatMagic {
		return nil, fmt.Errorf("itc: flat: bad magic")
	}
	hdr := data[len(flatMagic):]
	nNodes := binary.LittleEndian.Uint64(hdr[0:])
	nEdges := binary.LittleEndian.Uint64(hdr[8:])
	nSigs := binary.LittleEndian.Uint64(hdr[16:])
	nPaths := binary.LittleEndian.Uint64(hdr[24:])
	if nNodes > flatLimit || nEdges > flatLimit || nSigs > flatLimit || nPaths > flatLimit {
		return nil, fmt.Errorf("itc: flat: section count out of range")
	}
	n, e, s, p := int(nNodes), int(nEdges), int(nSigs), int(nPaths)
	want := flatHeaderSize + n*8 + n*8 + e*8 + e*4 + (e+1)*4 + s*8 + p*8
	if len(data) != want {
		return nil, fmt.Errorf("itc: flat: size %d, want %d", len(data), want)
	}
	f := sliceFlat(data, n, e, s, p)

	// Node index: in-order walk of the eytzinger tree must strictly
	// ascend (which also pins the permutation itself).
	slots := eytzSlots(n)
	var prev uint64
	for pos, k := range slots {
		v := f.eytz[k]
		if pos > 0 && v <= prev {
			return nil, fmt.Errorf("itc: flat: node index not ascending")
		}
		prev = v
	}
	// Edge blocks: contiguous prefix sums in slot order; successors
	// strictly ascending within a node.
	off := 0
	for k := 0; k < n; k++ {
		r := f.ref[k]
		start, cnt := int(uint32(r)), int(uint32(r>>32))
		if start != off || off+cnt > e {
			return nil, fmt.Errorf("itc: flat: edge refs not contiguous")
		}
		for j := 1; j < cnt; j++ {
			if f.succ[start+j] <= f.succ[start+j-1] {
				return nil, fmt.Errorf("itc: flat: successors not ascending")
			}
		}
		off += cnt
	}
	if off != e {
		return nil, fmt.Errorf("itc: flat: edge refs cover %d of %d edges", off, e)
	}
	// Signature index: exact prefix sums with ascending per-edge sets.
	if f.sigIdx[0] != 0 || int(f.sigIdx[e]) != s {
		return nil, fmt.Errorf("itc: flat: signature index bounds")
	}
	for i := 0; i < e; i++ {
		lo, hi := int(f.sigIdx[i]), int(f.sigIdx[i+1])
		if lo > hi || hi > s {
			return nil, fmt.Errorf("itc: flat: signature index not monotonic")
		}
		for j := lo + 1; j < hi; j++ {
			if f.sig[j] <= f.sig[j-1] {
				return nil, fmt.Errorf("itc: flat: signatures not ascending")
			}
		}
	}
	for i := 1; i < p; i++ {
		if f.path[i] <= f.path[i-1] {
			return nil, fmt.Errorf("itc: flat: path keys not ascending")
		}
	}
	return f, nil
}

// graphFromFlat reconstructs the mutable training-side Graph from a
// validated arena and publishes its labels.
func graphFromFlat(f *Flat) *Graph {
	n := f.nNodes
	g := &Graph{
		nodes: make([]uint64, n),
		succs: make([][]uint64, n),
		meta:  make([][]edgeMeta, n),
		Edges: f.nEdges,
	}
	slots := eytzSlots(n)
	for pos, k := range slots {
		g.nodes[pos] = f.eytz[k]
		r := f.ref[k]
		start, cnt := int(uint32(r)), int(uint32(r>>32))
		succs := make([]uint64, cnt)
		meta := make([]edgeMeta, cnt)
		for j := 0; j < cnt; j++ {
			e := start + j
			succs[j] = f.succ[e]
			lo, hi := int(f.sigIdx[e]), int(f.sigIdx[e+1])
			var sigs []uint64
			if hi > lo {
				sigs = make([]uint64, hi-lo)
				copy(sigs, f.sig[lo:hi])
			}
			meta[j] = edgeMeta{count: f.cnt[e], sigs: sigs}
		}
		g.succs[pos] = succs
		g.meta[pos] = meta
	}
	if len(f.path) > 0 {
		g.paths = make(map[uint64]struct{}, len(f.path))
		for _, p := range f.path {
			g.paths[p] = struct{}{}
		}
	}
	g.RebuildCache()
	return g
}

// sortU64 sorts in place without the sort package's closure allocation
// (heapsort: the inputs are small and cold).
func sortU64(a []uint64) {
	n := len(a)
	for i := n/2 - 1; i >= 0; i-- {
		siftU64(a, i, n)
	}
	for i := n - 1; i > 0; i-- {
		a[0], a[i] = a[i], a[0]
		siftU64(a, 0, i)
	}
}

func siftU64(a []uint64, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && a[c+1] > a[c] {
			c++
		}
		if a[i] >= a[c] {
			return
		}
		a[i], a[c] = a[c], a[i]
		i = c
	}
}

package itc

// Artifact is the fleet-sharing unit of the labeled ITC-CFG: one
// immutable pair of flat arenas (the full labeled graph and the §5.3
// high-credit subset) that any number of per-process guards reference
// by pointer. Nothing in an Artifact is mutable, so ten thousand
// checkers can probe one concurrently with no synchronization and no
// per-process copy — the per-process enforcement state shrinks to
// {window cursor, approval generation, stats}, all of which live in the
// guard, none of which duplicate the graph.
//
// An Artifact is always obtained from a Graph: Graph.Artifact returns
// the one its last RebuildCache published. Shipped FGITCFL1 bytes load
// through Decode, which rebuilds the graph and publishes both arenas the
// way every trained graph does, so a fleet controller decodes one
// trained artifact per binary and hands the same pointer to every
// process it protects.
type Artifact struct {
	full *Flat
	// high is the separate high-credit memory (§5.3): only the
	// high-credit edges, so the fast path's cache probe searches a
	// smaller arena than the full graph.
	high *Flat
	// gen is the label generation the artifact was published at. It is
	// fixed for the artifact's lifetime; guards key their approval-cache
	// validity on it.
	gen uint64
}

// Artifact returns the graph's currently published artifact: one atomic
// load, never a rebuild. Labels observed since the last RebuildCache are
// not in it. Later training does not affect an already-returned
// Artifact — it is a fixed point-in-time view — while the next
// RebuildCache makes Artifact return a new one of a later generation.
func (g *Graph) Artifact() *Artifact { return g.art.Load() }

// Lookup is the artifact form of Graph.Lookup: membership, credit, and
// TNT-signature match. Lock-free always.
//
//fg:hotpath
func (a *Artifact) Lookup(src, dst, sig uint64) EdgeLabel {
	return a.full.Lookup(src, dst, sig)
}

// CacheLookup probes the high-credit cache. Lock-free always.
//
//fg:hotpath
func (a *Artifact) CacheLookup(src, dst, sig uint64) (hit, sigMatch bool) {
	return a.high.CacheLookup(src, dst, sig)
}

// PathTrained reports whether the PathKey value was recorded in
// training. Lock-free always.
//
//fg:hotpath
func (a *Artifact) PathTrained(key uint64) bool {
	return a.full.PathTrained(key)
}

// Gen returns the artifact's (fixed) label generation.
func (a *Artifact) Gen() uint64 { return a.gen }

// Bytes returns the serialized FGITCFL1 form of the full labeled graph:
// the backing arena itself, aliased, not copied. Must not be modified.
func (a *Artifact) Bytes() []byte { return a.full.Bytes() }

// Size returns the serialized size of the full arena in bytes.
func (a *Artifact) Size() int { return a.full.Size() }

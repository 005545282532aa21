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
// An Artifact is obtained either from a Graph (Graph.Artifact returns
// the one its last RebuildCache published) or from
// serialized FGITCFL1 bytes (ArtifactFromFlat over LoadFlat): the PR 6
// wire format doubles as the zero-copy in-memory form, so a fleet
// controller can mmap one trained artifact per binary and hand the same
// pointer to every process it protects.
type Artifact struct {
	full *Flat
	// high is the separate high-credit memory. It is nil when the
	// artifact was adopted from serialized full-graph bytes; CacheLookup
	// then derives the cache verdict from the full arena (see below).
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

// ArtifactFromFlat adopts a loaded full-graph arena (LoadFlat over
// FGITCFL1 bytes) as a shared artifact. The serialized format carries
// the full labeled graph only; the high-credit cache verdict is derived
// from it on probe, which is semantically identical — the high arena
// contains exactly the count>0 edges with the same signature sets, so
// presence-in-high equals HighCredit-in-full and the sig matches agree.
func ArtifactFromFlat(f *Flat) *Artifact {
	return &Artifact{full: f, gen: 1}
}

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
	if a.high != nil {
		return a.high.CacheLookup(src, dst, sig)
	}
	l := a.full.Lookup(src, dst, sig)
	return l.HighCredit, l.SigMatch
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

// Full returns the full labeled flat graph the artifact wraps.
func (a *Artifact) Full() *Flat { return a.full }

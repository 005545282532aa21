// Fleet-scale enforcement (DESIGN.md §10): one shared, immutable label
// artifact per protected binary serving any number of per-process
// guards. The per-process enforcement state shrinks to the window
// cursor, the (possibly shared) approval cache, and the stats block —
// everything heavyweight (address space, O-CFG, the flat ITC-CFG
// arenas) is referenced by pointer from one Binary, never copied.
//
// This is the paper's end goal at system scale: training is per-binary,
// so its product — the credit-labeled ITC-CFG — is per-binary too, and
// the FGITCFL1 flat encoding (itc.Flat) doubles as the zero-copy wire
// and in-memory form. A fleet controller loads a few dozen artifacts
// and protects ten thousand processes with them.

package guard

import (
	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// Binary is the shared per-binary enforcement state: everything that is
// identical across every process running the same executable image.
// All fields are immutable after construction except Appr, which is the
// binary's pooled approval cache (internally synchronized). A Binary is
// safe for concurrent use by any number of guards.
type Binary struct {
	// AS is the canonical loaded address space of the binary. Processes
	// replaying recorded traces share it read-only; a live forked
	// process with its own (cloned) address space passes that clone to
	// ForkGuard instead.
	AS *module.AddressSpace
	// OCFG is the conservative O-CFG (slow-path precision source).
	OCFG *cfg.Graph
	// Art is the shared immutable label artifact every guard of this
	// binary probes. Exactly one per binary — the no-copy pin in the
	// fleet tests asserts pointer identity across all its guards.
	Art *itc.Artifact
	// Appr is the binary-wide pooled approval cache: a clean slow-path
	// verdict in any process serves every sibling's fast path.
	Appr *ApprovalCache
}

// NewBinary bundles the shared state of one protected binary. The
// artifact is graph.Artifact() after training, or the Artifact of the
// graph itc.Decode loads from shipped FGITCFL1 bytes.
func NewBinary(as *module.AddressSpace, ocfg *cfg.Graph, art *itc.Artifact) *Binary {
	return &Binary{AS: as, OCFG: ocfg, Art: art, Appr: NewApprovalCache()}
}

// NewGuard builds a per-process guard over the binary's shared state
// and the process's own tracer. The guard holds pointers into the
// Binary — no artifact bytes, no graph tables, no approval map of its
// own — so its marginal footprint is the Guard struct plus the lazily
// grown window buffer.
func (b *Binary) NewGuard(tr *ipt.Tracer, pol Policy) *Guard {
	return newGuard(b.AS, b.OCFG, nil, b.Art, b.Appr, tr, pol)
}

// UseArtifact pins an existing guard to a fixed shared artifact (tests
// and migration paths; fleet guards get one from Binary.NewGuard): the
// guard stops adopting labels from a live graph. Call before checking
// starts.
func (g *Guard) UseArtifact(a *itc.Artifact) { g.art, g.ITC = a, nil }

// Artifact returns the label artifact the guard probes: the fixed one,
// or for a live-graph guard the one its latest check adopted.
func (g *Guard) Artifact() *itc.Artifact {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.art
}

// ForkGuard builds the guard of a forked child: it inherits the
// parent's trained credit (the shared artifact or live graph, by
// pointer) and the parent's approvals (the live cache itself — an edge
// either process approves serves both, exactly like ShareApprovals
// siblings). The child gets a fresh window cursor over its own tracer
// and a fresh stats block; as points at the child's own address space
// (nil shares the parent's, the right choice for replayed streams).
//
// Conformance contract (pinned by the fork-inheritance property test):
// with the parent quiescent after the fork, the child's verdicts over
// any replayed trace are byte-identical to those of a fresh process
// built with the parent's Approvals().Clone() taken at fork time.
func ForkGuard(parent *Guard, as *module.AddressSpace, tr *ipt.Tracer) *Guard {
	if as == nil {
		as = parent.AS
	}
	g := newGuard(as, parent.OCFG, parent.ITC, parent.Artifact(), parent.appr, tr, parent.Policy)
	g.Stats.ForkInherits = 1
	return g
}

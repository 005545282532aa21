package guard

import (
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// slowPath runs the precise check of §5.3: it decodes the buffered trace
// at the instruction-flow layer (the Intel reference-decoder analogue,
// invoked in the paper through an upcall to a waiting user-level
// process), verifies every reconstructed edge against the O-CFG with the
// TypeArmor forward-edge policy, and maintains a shadow stack enforcing
// the single-target policy for returns. On a clean verdict the window's
// suspicious edges are cached as approved for subsequent fast paths.
//
//fg:cold the precise check runs only on non-credible windows (§5.3)
func (g *Guard) slowPath(res *Result, tips []ipt.TIPRecord, region []byte) {
	res.UsedSlowPath = true
	// Decode exactly the window the fast path inspected (§5.3:
	// "FlowGuard only checks a specified number of TIP packets"); the
	// region always starts at a PSB sync point.
	if len(region) == 0 {
		return // nothing decodable; fast-path verdict stands
	}
	ft, err := ipt.DecodeFull(g.AS, region, 0)
	if ft != nil {
		res.SlowCycles += ft.Cycles()
	}
	if err != nil {
		// The reconstructed flow left mapped executable memory: only a
		// hijacked control flow does that.
		res.Verdict = VerdictViolation
		res.Reason = fmt.Sprintf("slow path: flow reconstruction failed: %v", err)
		return
	}

	// Shadow stack over the reconstructed window. The window may begin
	// mid-execution, so returns that underflow the window-local stack
	// fall back to the O-CFG return-matching check only. At each
	// overflow-resynchronization seam the walk restarted from a PSB with
	// an unknown call depth, so the stack is cleared: popping frames
	// pushed before the seam would fault legitimate returns.
	var shadow []uint64
	nextResync := 0
	for fi, b := range ft.Flow {
		for nextResync < len(ft.ResyncPoints) && ft.ResyncPoints[nextResync] <= fi {
			shadow = shadow[:0]
			nextResync++
		}
		if !g.OCFG.ContainsEdge(b.Source, b.Target, b.Class) {
			res.Verdict = VerdictViolation
			res.Reason = fmt.Sprintf("slow path: O-CFG mismatch: %v %s -> %s",
				b.Class, g.AS.SymbolFor(b.Source), g.AS.SymbolFor(b.Target))
			return
		}
		op := g.opAt(b.Source)
		switch op {
		case isa.CALL, isa.CALLR:
			shadow = append(shadow, b.Source+isa.InstrSize)
		case isa.RET:
			if len(shadow) == 0 {
				continue // truncated prologue: matching already checked
			}
			want := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if b.Target != want {
				res.Verdict = VerdictViolation
				res.Reason = fmt.Sprintf("slow path: shadow stack: ret %s -> %s, want %s",
					g.AS.SymbolFor(b.Source), g.AS.SymbolFor(b.Target), g.AS.SymbolFor(want))
				return
			}
		case isa.SYSCALL:
			if b.Target != b.Source+isa.InstrSize {
				res.Verdict = VerdictViolation
				res.Reason = fmt.Sprintf("slow path: far transfer resumed at %s",
					g.AS.SymbolFor(b.Target))
				return
			}
		}
	}

	// No attack: remember the suspicious edges (and, in path-sensitive
	// mode, the edge pairs) so later fast paths pass them without
	// re-decoding. Pairs straddling an overflow seam are not real edges
	// and must not be cached as approved.
	for i := 0; i+1 < len(tips); i++ {
		if tips[i].Async || tips[i+1].Resync || tips[i+1].Async {
			continue
		}
		src, dst, sig := tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig
		l := g.art.Lookup(src, dst, sig)
		if l.Exists && !(l.HighCredit && l.SigMatch) {
			g.appr.ApproveEdge(edgeKey{src, dst, sig})
		}
		if g.Policy.PathSensitive && i+2 < len(tips) && !tips[i+2].Resync && !tips[i+2].Async {
			g.appr.ApprovePath(itc.PathKey(src, dst, tips[i+2].IP))
		}
	}
}

// opAt decodes the opcode at a code address (0 instruction count cost:
// already charged through the full decode).
func (g *Guard) opAt(addr uint64) isa.Op {
	raw, err := g.AS.FetchInstr(addr)
	if err != nil {
		return isa.NOP
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return isa.NOP
	}
	return in.Op
}

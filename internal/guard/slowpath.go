package guard

import (
	"errors"
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
// The window's region, [psb, s.win.total) of stream s, is copied out of
// the ToPA into a guard-owned buffer here, only when the slow path runs.
// No writer reaches a stream's ToPA during that stream's check (the
// traced thread is blocked in the gate, the multicore scheduler is
// serial and pumps before each check, async capture only reads), so the
// ToPA still holds exactly that span. If it does not — the write offset
// moved or the span was evicted — the region is not decoded at all: the
// loss is counted as a wrap loss (Stats.Resyncs), the cache is dropped,
// res.Health becomes HealthResynced and slowPath reports false, so the
// caller resolves the window under Policy.OnDegraded.
//
//fg:cold the precise check runs only on non-credible windows (§5.3)
func (g *Guard) slowPath(res *Result, s *stream, tips []ipt.TIPRecord, psb uint64) bool {
	region, ok := g.windowRegion(s, psb)
	if !ok {
		s.win.wrapLoss = true
		s.win.src = nil
		g.Stats.Resyncs++
		res.Health = HealthResynced
		return false
	}
	g.slowCheck(res, tips, region)
	return true
}

// windowRegion copies the window region [psb, s.win.total) of stream s
// out of its ToPA into the guard's reused region buffer. It reports false
// unless the ToPA holds exactly that span: every byte of it still
// resident and nothing written after it.
func (g *Guard) windowRegion(s *stream, psb uint64) ([]byte, bool) {
	region, ok := s.tr.Out.AppendSince(g.slowRegion[:0], psb)
	g.slowRegion = region
	return region, ok && uint64(len(region)) == s.win.total-psb
}

// slowCheck is the precise check over one window region that opens at a
// PSB: slowPath's region copied out of the stream's ToPA, or a
// SlowPathRetry recovery's snapshot suffix.
//
//fg:cold the precise check runs only on non-credible windows (§5.3)
func (g *Guard) slowCheck(res *Result, tips []ipt.TIPRecord, region []byte) {
	res.UsedSlowPath = true
	// Decode exactly the window the fast path inspected (§5.3:
	// "FlowGuard only checks a specified number of TIP packets"); the
	// region always starts at a PSB sync point.
	if len(region) == 0 {
		return // nothing decodable; fast-path verdict stands
	}
	w, err := ipt.NewFlowWalk(g.AS, region, 0)
	if err != nil {
		res.Verdict = VerdictViolation
		res.Reason = fmt.Sprintf("slow path: flow reconstruction failed: %v", err)
		return
	}

	// The walk decides direct and conditional edges with the O-CFG
	// itself and yields only those it rejects, plus every other edge.
	// Its memo of the chains it crossed serves every later check over
	// the same O-CFG.
	if g.slowMemo == nil || g.slowMemo.Checker() != g.OCFG {
		g.slowMemo = ipt.NewChainMemo(g.OCFG)
	}
	w.CheckDirect(g.slowMemo)

	// Check every yielded edge as the walk reconstructs it, with a
	// shadow stack over the window. The window may begin mid-execution,
	// so returns that underflow the window-local stack fall back to the
	// O-CFG return-matching check only. At each overflow-resynchronization
	// seam the walk restarted from a PSB with an unknown call depth, so
	// the stack is cleared: popping frames pushed before the seam would
	// fault legitimate returns. After the first violation the walk still
	// runs to its end: a flow that cannot be reconstructed is reported
	// as such, and the decode is charged in full either way.
	var frames [32]uint64
	shadow := frames[:0]
	resyncs := 0
	violation := ""
	for w.Next() {
		if violation != "" {
			continue
		}
		e := w.Edge()
		if n := w.Resyncs(); n != resyncs {
			shadow, resyncs = shadow[:0], n
		}
		if !g.OCFG.ContainsEdge(e.Source, e.Target, e.Class) {
			violation = fmt.Sprintf("slow path: O-CFG mismatch: %v %s -> %s",
				e.Class, g.AS.SymbolFor(e.Source), g.AS.SymbolFor(e.Target))
			continue
		}
		switch e.Op {
		case isa.CALL, isa.CALLR:
			shadow = append(shadow, e.Source+isa.InstrSize)
		case isa.RET:
			if len(shadow) == 0 {
				continue // truncated prologue: matching already checked
			}
			want := shadow[len(shadow)-1]
			shadow = shadow[:len(shadow)-1]
			if e.Target != want {
				violation = fmt.Sprintf("slow path: shadow stack: ret %s -> %s, want %s",
					g.AS.SymbolFor(e.Source), g.AS.SymbolFor(e.Target), g.AS.SymbolFor(want))
			}
		case isa.SYSCALL:
			if e.Target != e.Source+isa.InstrSize {
				violation = fmt.Sprintf("slow path: far transfer resumed at %s",
					g.AS.SymbolFor(e.Target))
			}
		}
	}
	// A region that breaks the packet grammar anywhere fails as a whole,
	// with no decode charged. Otherwise the reconstructed flow left
	// mapped executable memory: only a hijacked control flow does that.
	err = w.Err()
	if !errors.Is(err, ipt.ErrMalformedTrace) {
		res.SlowCycles += w.Instrs() * ipt.CyclesPerDecodedInstr
	}
	if err != nil {
		res.Verdict = VerdictViolation
		res.Reason = fmt.Sprintf("slow path: flow reconstruction failed: %v", err)
		return
	}
	if violation != "" {
		res.Verdict = VerdictViolation
		res.Reason = violation
		return
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

package oracle

import (
	"errors"
	"fmt"

	"flowguard/internal/cfg"
	"flowguard/internal/isa"
)

// flowEdge is one reconstructed change-of-flow event.
type flowEdge struct {
	class    isa.CoFIClass
	src, dst uint64
	taken    bool
}

var errExhausted = errors.New("oracle: trace data exhausted")
var errDesync = errors.New("oracle: decoder desynchronized")
var errNoSync = errors.New("oracle: no sync point in trace")

// pktCursor serves TNT bits and IP packets in stream order, skipping
// synchronization-only packets — the reference twin of the production
// token cursor.
type pktCursor struct {
	pkts []Packet
	i    int
	bit  int
}

func (c *pktCursor) skipMeta() {
	for c.i < len(c.pkts) {
		switch p := c.pkts[c.i]; p.Kind {
		case PkPAD, PkPIP, PkPSBEND, PkPSB, PkMODE:
			c.i++
		case PkFUP:
			if p.Ctx {
				c.i++
				continue
			}
			return
		case PkTNT:
			if c.bit >= p.TNTCount {
				c.i++
				c.bit = 0
				continue
			}
			return
		default:
			return
		}
	}
}

func (c *pktCursor) nextTNT() (bool, error) {
	c.skipMeta()
	if c.i >= len(c.pkts) {
		return false, errExhausted
	}
	p := c.pkts[c.i]
	if p.Kind != PkTNT {
		return false, errDesync
	}
	taken := p.TNTBits&(1<<c.bit) != 0
	c.bit++
	return taken, nil
}

func (c *pktCursor) nextIP(want PacketKind) (Packet, error) {
	c.skipMeta()
	if c.i >= len(c.pkts) {
		return Packet{}, errExhausted
	}
	p := c.pkts[c.i]
	if p.Kind != want {
		return Packet{}, errDesync
	}
	c.i++
	c.bit = 0
	return p, nil
}

// nextAsync consumes a pending asynchronous-transfer pair — a non-context
// FUP whose IP equals the current walk position followed directly by a
// TIP — and returns the TIP target. The kernel performs this jump (signal
// delivery or sigreturn), so the walker relocates without recording a
// flow edge; on mismatch the cursor is restored.
func (c *pktCursor) nextAsync(ip uint64) (uint64, bool) {
	si, sbit := c.i, c.bit
	c.skipMeta()
	if c.i >= len(c.pkts) {
		c.i, c.bit = si, sbit
		return 0, false
	}
	p := c.pkts[c.i]
	if p.Kind != PkFUP || p.Ctx || p.IP != ip {
		c.i, c.bit = si, sbit
		return 0, false
	}
	c.i++
	c.bit = 0
	c.skipMeta()
	if c.i >= len(c.pkts) || c.pkts[c.i].Kind != PkTIP {
		c.i, c.bit = si, sbit
		return 0, false
	}
	t := c.pkts[c.i].IP
	c.i++
	c.bit = 0
	return t, true
}

// seekPSB advances to the next PSB's context FUP and returns its IP.
func (c *pktCursor) seekPSB() (uint64, bool) {
	for ; c.i < len(c.pkts); c.i++ {
		if c.pkts[c.i].Kind != PkPSB {
			continue
		}
		for j := c.i + 1; j < len(c.pkts); j++ {
			switch c.pkts[j].Kind {
			case PkFUP:
				if c.pkts[j].Ctx {
					c.i = j + 1
					c.bit = 0
					return c.pkts[j].IP, true
				}
			case PkPSBEND:
				j = len(c.pkts)
			}
		}
	}
	return 0, false
}

// walkFlow reconstructs the complete instruction flow from parsed
// packets by walking the binaries: fetch, decode, consume a TNT bit at
// each conditional and a TIP at each indirect transfer. resyncPts marks
// flow indices where reconstruction resumed at a later PSB (stateful
// consumers reset across the seam). instrs counts the instructions
// fetched and decoded, up to a fetch or decode error: the input of the
// production cycle model, which charges every retired instruction.
func (o *Oracle) walkFlow(pkts []Packet) (flow []flowEdge, resyncPts []int, instrs uint64, err error) {
	cur := &pktCursor{pkts: pkts}
	ip, ok := cur.seekPSB()
	if !ok {
		return nil, nil, 0, errNoSync
	}
	resync := func() bool {
		nip, ok := cur.seekPSB()
		if !ok {
			return false
		}
		resyncPts = append(resyncPts, len(flow))
		ip = nip
		return true
	}
	for {
		// A pending FUP(ip)+TIP pair is a kernel-performed asynchronous
		// transfer: relocate without fetching an instruction or recording
		// a flow edge (async edges are not in the O-CFG; the shadow stack
		// carries across — sigreturn brings the flow back).
		if t, aok := cur.nextAsync(ip); aok {
			ip = t
			continue
		}
		raw, ferr := o.AS.FetchInstr(ip)
		if ferr != nil {
			return flow, resyncPts, instrs, fmt.Errorf("oracle: flow fetch at %#x: %w", ip, ferr)
		}
		in, derr := isa.Decode(raw)
		if derr != nil {
			return flow, resyncPts, instrs, fmt.Errorf("oracle: flow decode at %#x: %w", ip, derr)
		}
		instrs++
		next := ip + isa.InstrSize
		switch in.Op {
		case isa.JMP, isa.CALL:
			t := in.BranchTarget(ip)
			flow = append(flow, flowEdge{isa.CoFIDirect, ip, t, true})
			ip = t
		case isa.JCC:
			taken, terr := cur.nextTNT()
			if errors.Is(terr, errExhausted) {
				return flow, resyncPts, instrs, nil
			}
			if terr != nil {
				if resync() {
					continue
				}
				return flow, resyncPts, instrs, nil
			}
			t := next
			if taken {
				t = in.BranchTarget(ip)
			}
			flow = append(flow, flowEdge{isa.CoFICond, ip, t, taken})
			ip = t
		case isa.JMPR, isa.CALLR, isa.RET:
			class := isa.CoFIIndirect
			if in.Op == isa.RET {
				class = isa.CoFIRet
			}
			p, perr := cur.nextIP(PkTIP)
			if errors.Is(perr, errExhausted) {
				return flow, resyncPts, instrs, nil
			}
			if perr != nil {
				if resync() {
					continue
				}
				return flow, resyncPts, instrs, nil
			}
			flow = append(flow, flowEdge{class, ip, p.IP, true})
			ip = p.IP
		case isa.SYSCALL:
			if _, perr := cur.nextIP(PkFUP); perr != nil {
				if errors.Is(perr, errExhausted) {
					return flow, resyncPts, instrs, nil
				}
				if resync() {
					continue
				}
				return flow, resyncPts, instrs, nil
			}
			if _, perr := cur.nextIP(PkTIPPGD); perr != nil {
				return flow, resyncPts, instrs, nil
			}
			pge, perr := cur.nextIP(PkTIPPGE)
			if perr != nil {
				return flow, resyncPts, instrs, nil
			}
			flow = append(flow, flowEdge{isa.CoFIFarTransfer, ip, pge.IP, true})
			ip = pge.IP
		case isa.HALT:
			return flow, resyncPts, instrs, nil
		default:
			ip = next
		}
	}
}

// ocfgContains is the linear-scan membership test against the static
// O-CFG: find the block containing src, then validate the edge against
// the block's terminator shape.
func (o *Oracle) ocfgContains(src, dst uint64, class isa.CoFIClass) bool {
	var blk *cfg.Block
	for _, b := range o.OCFG.Blocks {
		if b.Start <= src && src < b.End {
			blk = b
			break
		}
	}
	if blk == nil {
		return false
	}
	switch class {
	case isa.CoFIDirect, isa.CoFIFarTransfer:
		switch blk.Kind {
		case cfg.TermJmp, cfg.TermCall, cfg.TermSyscall:
			return blk.TermAddr == src && blk.Next == dst
		}
		return false
	case isa.CoFICond:
		return blk.Kind == cfg.TermCond && blk.TermAddr == src &&
			(blk.Taken == dst || blk.Fall == dst)
	case isa.CoFIIndirect, isa.CoFIRet:
		if blk.TermAddr != src || (blk.Kind != cfg.TermIndCall && blk.Kind != cfg.TermIndJmp && blk.Kind != cfg.TermRet) {
			return false
		}
		for _, t := range blk.IndTargets {
			if t == dst {
				return true
			}
		}
		return false
	}
	return false
}

// opAt decodes the opcode at addr, treating any fetch or decode failure
// as a NOP (the flow walk reports those separately).
func (o *Oracle) opAt(addr uint64) isa.Op {
	raw, err := o.AS.FetchInstr(addr)
	if err != nil {
		return isa.NOP
	}
	in, err := isa.Decode(raw)
	if err != nil {
		return isa.NOP
	}
	return in.Op
}

// slowPath is the reference full check: reconstruct the complete flow of
// the window region, validate every edge against the O-CFG, replay the
// shadow stack over calls and returns, and require far transfers to
// resume at the fall-through. A clean verdict approves the window's
// low-credit edges for later fast checks.
func (o *Oracle) slowPath(res *Result, recs []tipRec, region []byte) {
	res.UsedSlowPath = true
	if len(region) == 0 {
		return
	}
	pkts, _, perr := parse(nil, region, 0, false)
	if perr == nil {
		var flow []flowEdge
		var resyncPts []int
		var instrs uint64
		flow, resyncPts, instrs, perr = o.walkFlow(pkts)
		res.FlowInstrs += instrs
		if perr == nil {
			var shadow []uint64
			nextResync := 0
			for fi, e := range flow {
				for nextResync < len(resyncPts) && resyncPts[nextResync] <= fi {
					shadow = shadow[:0]
					nextResync++
				}
				if !o.ocfgContains(e.src, e.dst, e.class) {
					res.Verdict = VerdictViolation
					res.Reason = fmt.Sprintf("slow path: O-CFG mismatch: %#x -> %#x", e.src, e.dst)
					return
				}
				switch o.opAt(e.src) {
				case isa.CALL, isa.CALLR:
					shadow = append(shadow, e.src+isa.InstrSize)
				case isa.RET:
					if len(shadow) == 0 {
						continue
					}
					want := shadow[len(shadow)-1]
					shadow = shadow[:len(shadow)-1]
					if e.dst != want {
						res.Verdict = VerdictViolation
						res.Reason = fmt.Sprintf("slow path: shadow stack: %#x != %#x", e.dst, want)
						return
					}
				case isa.SYSCALL:
					if e.dst != e.src+isa.InstrSize {
						res.Verdict = VerdictViolation
						res.Reason = fmt.Sprintf("slow path: far transfer resumed at %#x", e.dst)
						return
					}
				}
			}
		}
	}
	if perr != nil {
		res.Verdict = VerdictViolation
		res.Reason = fmt.Sprintf("slow path: flow reconstruction failed: %v", perr)
		return
	}
	// Clean: remember the verdict for the window's low-credit edges.
	for i := 0; i+1 < len(recs); i++ {
		if recs[i].Async || recs[i+1].Resync || recs[i+1].Async {
			continue
		}
		src, dst, sig := recs[i].IP, recs[i+1].IP, recs[i+1].Sig
		exists, count, sigOK := o.Ref.lookup(src, dst, sig)
		if exists && !(count > 0 && sigOK) {
			o.apprEdges[edgeApproval{src, dst, sig}] = true
		}
		if o.Policy.PathSensitive && i+2 < len(recs) && !recs[i+2].Resync && !recs[i+2].Async {
			o.apprPaths[[3]uint64{src, dst, recs[i+2].IP}] = true
		}
	}
}

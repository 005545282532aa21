package ipt

import (
	"errors"
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/module"
	"flowguard/internal/trace"
)

// CyclesPerDecodedInstr is the calibrated cost of reconstructing one
// retired instruction at the instruction-flow layer of abstraction
// (binary fetch + decode + packet correlation). It reproduces the ~230x
// geomean full-decode overhead the paper measures with Intel's reference
// decoder library (§2), and anchors the slow path's ~0.23 ms per 100-TIP
// window (§7.2.2). See EXPERIMENTS.md for the calibration.
const CyclesPerDecodedInstr = 360

// FullTrace is the output of the instruction-flow-layer decoder: the
// complete reconstructed control flow, not just the packetized subset.
type FullTrace struct {
	// Flow lists every reconstructed change-of-flow event in order,
	// including the direct branches that produce no packets.
	Flow []trace.Branch
	// Instrs is the number of instructions walked (the decode cost
	// driver).
	Instrs uint64
	// StartIP is the synchronization address (PSB+ FUP context).
	StartIP uint64
	// EndIP is the instruction pointer when trace data ran out.
	EndIP uint64
	// Resyncs counts recoveries via the next PSB after overflow or
	// desynchronization.
	Resyncs int
	// ResyncPoints holds, for each resynchronization, the index into
	// Flow where reconstruction resumed: Flow[p-1] and Flow[p] are not
	// control-flow-adjacent, and stateful consumers (the slow path's
	// shadow stack) must reset across the seam.
	ResyncPoints []int
}

// Cycles returns the calibrated cost of this decode.
func (t *FullTrace) Cycles() uint64 { return t.Instrs * CyclesPerDecodedInstr }

// pktCursor is the flow walk's position in the region bytes. It steps
// the packet grammar itself and holds the current packet: the first one
// at or after its position that is not synchronization-only (PIP,
// PSBEND, MODE, PSB, a PSB+ context FUP), which it consumes as it meets
// them. A TNT packet stays current until its last outcome is popped.
type pktCursor struct {
	pktScan // off: just past the current packet
	pk      Event
	// tnt is the current packet's outcomes below a stop bit, bits |
	// 1<<count, when it is a TNT packet (pk is then stale), and 0
	// otherwise: the TNT header byte shifted right once, and the
	// ChainMemo key. bit counts the outcomes popped.
	tnt uint8
	bit int
	// async marks a current non-context FUP directly followed, past
	// synchronization-only packets, by a TIP: the asynchronous-transfer
	// pair the kernel emits at signal delivery (FUP = interrupted PC,
	// TIP = handler entry) and at sigreturn (FUP = resume point of the
	// handler, TIP = restored context).
	async bool
	// end is set once no packet is left: the data ran out, or err, the
	// first grammar error, cut it short.
	end bool
	err error
	// cut is set once a tipFollows lookahead ran into the end of the
	// data: over longer data the FUP it probed may be asynchronous.
	cut bool
}

// syncOnly reports whether e only carries decoder synchronization, which
// the walk steps over.
func syncOnly(e *Event) bool {
	switch e.Kind {
	case KindPIP, KindPSBEND, KindMODE, KindPSB:
		return true
	}
	return e.Kind == KindFUP && e.Ctx
}

// step parses the next packet into pk. At the end of the packets it
// ends the cursor and reports false, as often as it is called.
func (c *pktCursor) step() bool {
	ok, err := c.next(&c.pk)
	if !ok {
		c.end, c.err, c.tnt, c.async = true, err, 0, false
	}
	return ok
}

// advance consumes the current packet and makes the next one current.
func (c *pktCursor) advance() {
	if !c.nextTNTByte() {
		c.parse()
	}
}

// nextTNTByte makes a TNT packet directly after the current one current,
// with one byte load, and reports whether there was one.
func (c *pktCursor) nextTNTByte() bool {
	if c.off < len(c.buf) {
		if b := c.buf[c.off]; isTNTHeader(b) {
			c.tnt, c.bit = b>>1, 0
			c.off++
			return true
		}
	}
	return false
}

// parse is advance past anything but a TNT packet: it parses packets up
// to the next one that is not synchronization-only.
func (c *pktCursor) parse() {
	c.tnt, c.bit, c.async = 0, 0, false
	for c.step() {
		if e := &c.pk; e.Kind == KindTNT {
			c.tnt = e.TNTBits | 1<<e.TNTCount
			return
		} else if !syncOnly(e) {
			c.async = e.Kind == KindFUP && c.tipFollows()
			return
		}
	}
}

// tipFollows reports whether the next packet after the current one that
// is not synchronization-only is a TIP, without moving the cursor.
func (c *pktCursor) tipFollows() bool {
	s := c.pktScan
	var e Event
	for {
		if ok, err := s.next(&e); !ok || !syncOnly(&e) {
			c.cut = c.cut || !ok && err == nil
			return ok && e.Kind == KindTIP
		}
	}
}

// dry reports whether the cursor ended because the data ran out: no
// packet is left and the bytes it read break no grammar rule.
func (c *pktCursor) dry() bool { return c.end && c.err == nil }

// nextTNT pops the oldest pending conditional outcome; ok is false when
// the current packet is no TNT packet, or none is left.
func (c *pktCursor) nextTNT() (taken, ok bool) {
	if c.tnt == 0 {
		return false, false
	}
	taken = c.tnt>>c.bit&1 != 0
	if c.bit++; c.tnt>>c.bit == 1 {
		c.advance()
	}
	return taken, true
}

// nextIP pops the IP of the current packet if it is of kind want.
func (c *pktCursor) nextIP(want Kind) (uint64, bool) {
	if c.end || c.tnt != 0 || c.pk.Kind != want {
		return 0, false
	}
	ip := c.pk.IP
	c.advance()
	return ip, true
}

// seekPSB parses forward from the packet after the current one to the
// next PSB packet and past its context FUP, whose IP it returns: the
// initial sync, and the resynchronization after an overflow or a
// desynchronization. A PSB+ region that ends (PSBEND) without a context
// FUP is passed over.
func (c *pktCursor) seekPSB() (uint64, bool) {
	psb := false
	for c.step() {
		switch c.pk.Kind {
		case KindPSB:
			psb = true
		case KindPSBEND:
			psb = false
		case KindFUP:
			if psb {
				ip := c.pk.IP
				c.advance()
				return ip, true
			}
		}
	}
	return 0, false
}

// drain steps the grammar over the rest of the region and returns the
// first grammar error in it, if any.
func (c *pktCursor) drain() error {
	for c.step() {
	}
	return c.err
}

// DecodeFull is the instruction-flow-layer decoder (the Intel reference
// library analogue, §2/§5.3): it synchronizes at a PSB, then walks the
// program binaries, consuming TNT bits at conditional branches and TIP
// targets at indirect branches/returns to reconstruct the complete
// control flow. maxInstrs bounds the walk (0 = unlimited). A buffer that
// breaks the packet grammar anywhere yields no trace, only the error.
func DecodeFull(as *module.AddressSpace, buf []byte, maxInstrs uint64) (*FullTrace, error) {
	w, err := NewFlowWalk(as, buf, maxInstrs)
	if err != nil {
		return nil, err
	}
	return collect(&w)
}

// collect runs w to its end and collects what it yields.
func collect(w *FlowWalk) (*FullTrace, error) {
	ft := &FullTrace{StartIP: w.StartIP()}
	for w.Next() {
		ft.noteResyncs(w.Resyncs())
		ft.Flow = append(ft.Flow, w.Edge().Branch)
	}
	ft.noteResyncs(w.Resyncs())
	ft.Instrs, ft.EndIP = w.Instrs(), w.EndIP()
	if errors.Is(w.Err(), ErrMalformedTrace) {
		return nil, w.Err()
	}
	return ft, w.Err()
}

// noteResyncs records a resynchronization point at the current end of
// Flow for each resync the walk made since the last call.
func (t *FullTrace) noteResyncs(n int) {
	for ; t.Resyncs < n; t.Resyncs++ {
		t.ResyncPoints = append(t.ResyncPoints, len(t.Flow))
	}
}

// EdgeChecker decides whether a direct edge belongs to the program's
// control-flow graph; *cfg.Graph satisfies it.
type EdgeChecker interface {
	ContainsEdge(src, dst uint64, class isa.CoFIClass) bool
}

// FlowEdge is one reconstructed change-of-flow event together with the
// opcode of the instruction that made it.
type FlowEdge struct {
	trace.Branch
	Op isa.Op
}

// FlowWalk is the instruction-flow walk as an iterator: Next advances to
// the next reconstructed edge, so a consumer can check edges as they are
// found without collecting them (DecodeFull collects them). It pulls
// packets straight from the buffer's bytes (pktCursor).
//
// The walk steps basic blocks, not instructions. Inside an executable,
// read-only segment it reads the segment's code map (module.CodeMap),
// through the same kind of fetch cursor the CPU executes from: a
// straight-line run adds its instruction count in one step, clamped by
// maxInstrs and by a pending asynchronous FUP inside the run, and only
// the run's stop instruction is taken from the map. Where no map applies
// — a misaligned IP, a writable or unmapped page — it fetches and
// decodes each instruction. Either way the walk retires, counts and
// reports exactly what an instruction-by-instruction walk would.
//
// With a ChainMemo set (CheckDirect), the walk asks the memo's checker
// about every direct JMP and conditional JCC edge and yields only those
// it rejects; every other edge is yielded as before. Chains of such
// edges are then walked in the chain lane: one loop over the code map's
// slots that pops TNT outcomes in place and asks the checker, without a
// round trip through Next per edge, and that crosses a TNT packet's
// whole chain in one step where the memo has recorded it.
type FlowWalk struct {
	as        *module.AddressSpace
	cur       pktCursor
	maxInstrs uint64
	code      module.FetchCursor
	memo      *ChainMemo

	startIP, ip uint64
	instrs      uint64
	resyncs     int
	edge        FlowEdge
	err         error
	done        bool

	// held is the instruction the walk stopped at when the data ran out
	// before its packet (see Suspended); suspended marks that stop as one
	// Resume can continue, and resumed that Next takes held's packet
	// before it fetches anything.
	held      isa.Instr
	suspended bool
	resumed   bool
	// raw is set once the walk decoded an instruction outside a code map,
	// from a page whose bytes may change without an Mprotect.
	raw bool
}

// NewFlowWalk synchronizes at the first PSB of buf, which must start at
// a packet header, and returns a walk positioned there; it returns the
// grammar error it met on the way, or ErrNoSync. maxInstrs bounds the
// walk (0 = unlimited).
func NewFlowWalk(as *module.AddressSpace, buf []byte, maxInstrs uint64) (FlowWalk, error) {
	w := FlowWalk{as: as, cur: pktCursor{pktScan: pktScan{buf: buf}}, maxInstrs: maxInstrs}
	ip, ok := w.cur.seekPSB()
	if !ok {
		if w.cur.err != nil {
			return FlowWalk{}, w.cur.err
		}
		return FlowWalk{}, ErrNoSync
	}
	w.startIP, w.ip = ip, ip
	return w, nil
}

// CheckDirect makes the walk decide direct JMP and conditional JCC edges
// with m's checker, yielding only the edges it rejects, and walk their
// chains through m (see FlowWalk and ChainMemo). Call it before the
// first Next.
func (w *FlowWalk) CheckDirect(m *ChainMemo) { w.memo = m }

// Edge returns the edge the last successful Next found.
func (w *FlowWalk) Edge() FlowEdge { return w.edge }

// Resyncs returns how many overflow resynchronizations the walk has made
// so far: between the previous edge and the current one the flow is not
// control-flow-adjacent when this count grew.
func (w *FlowWalk) Resyncs() int { return w.resyncs }

// Instrs returns the number of instructions walked so far (the decode
// cost driver).
func (w *FlowWalk) Instrs() uint64 { return w.instrs }

// StartIP returns the synchronization address.
func (w *FlowWalk) StartIP() uint64 { return w.startIP }

// EndIP returns the instruction pointer where the walk ended.
func (w *FlowWalk) EndIP() uint64 { return w.ip }

// Err returns the error that ended the walk, if any: a grammar error
// anywhere in the buffer, even past the point where the walk stopped
// (it wraps ErrMalformedTrace and outranks every other error), or else
// the fetch or decode error that stopped the reconstruction. Trace data
// running out is not an error.
func (w *FlowWalk) Err() error { return w.err }

// finish ends the walk with err, unless the rest of the buffer breaks
// the packet grammar.
func (w *FlowWalk) finish(err error) bool {
	if gerr := w.cur.drain(); gerr != nil {
		err = gerr
	}
	w.done, w.err = true, err
	return false
}

// Suspended reports whether the walk ended where a walk of longer data
// would go on: the data ran out, with no grammar error, at an instruction
// that takes a packet (JCC, JMPR, CALLR, RET, SYSCALL) the buffer does
// not hold yet. The walk then reports what it would have reported
// without the suspension — Instrs counts that instruction, EndIP is its
// address, Err is nil — and Resume can continue it. A walk is not
// suspended when anything else ended it (HALT, the instruction cap, a
// fetch, decode or grammar error, a resynchronization that found no PSB),
// when a lookahead for an asynchronous FUP's TIP ran into the end of the
// data, or when it decoded an instruction outside a code map.
func (w *FlowWalk) Suspended() bool { return w.suspended }

// Resume continues a suspended walk over region, which must hold the
// bytes the walk read at its start, unchanged, and may hold more after
// them. The walk then goes on exactly as a walk of region from its start
// would go on past the instruction it stopped at: the first Next takes
// that instruction's packet without counting the instruction again.
//
// Resume reports false, and the walk must be dropped, when the walk is
// not suspended, region is shorter than the bytes read, or the packet
// after those bytes is an asynchronous FUP. Such a FUP may name an
// instruction the walk retired after its data ran out, where a walk of
// region relocates instead.
func (w *FlowWalk) Resume(region []byte) bool {
	c := &w.cur
	if !w.Suspended() || len(region) < len(c.buf) {
		return false
	}
	w.suspended = false
	c.buf = region
	if c.end {
		c.end = false
		if c.advance(); c.async {
			return false
		}
	}
	w.done, w.resumed = false, true
	return true
}

// suspend ends the walk at in, whose packet the dry cursor does not
// hold: as finish(nil) does, for drain has nothing left to step.
func (w *FlowWalk) suspend(in isa.Instr) bool {
	w.held, w.suspended = in, !w.cur.cut && !w.raw
	w.done = true
	return false
}

// missing handles a packet the cursor does not hold for in, which has
// taken none of its packets yet: at the end of the data the walk
// suspends; a packet of another kind desynchronizes it, and it goes on
// from the next PSB if there is one. It reports whether the walk goes on.
func (w *FlowWalk) missing(in isa.Instr) bool {
	if w.cur.dry() {
		return w.suspend(in)
	}
	return w.resync() || w.finish(nil)
}

// emit reports one edge and moves the walk to its target.
func (w *FlowWalk) emit(class isa.CoFIClass, op isa.Op, target uint64, taken bool) bool {
	w.edge = FlowEdge{Branch: trace.Branch{Class: class, Source: w.ip, Target: target, Taken: taken}, Op: op}
	w.ip = target
	return true
}

// accepts reports whether a checker is set and accepts the edge from the
// current IP to target: such an edge is walked past, not yielded.
func (w *FlowWalk) accepts(class isa.CoFIClass, target uint64) bool {
	return w.memo != nil && w.memo.check.ContainsEdge(w.ip, target, class)
}

// ChainMemo is the chain lane's memo of its own work, for one
// EdgeChecker. For a code map, the slot where a TNT packet's first
// outcome is about to be consumed, and the packet's outcomes, it records
// where the lane ends up once it has consumed the packet's last outcome
// with every direct edge on the way accepted, and how many instructions
// it retired to get there. The chain is a function of the map's
// immutable slots, the outcomes and the checker's answers, so a lane
// meeting the same packet at the same slot again crosses it with one
// table load instead of stepping and checking each edge.
//
// The checker must answer the same for an edge every time it is asked
// (*cfg.Graph does), and a memo must serve no other checker, which
// NewChainMemo enforces by binding the two. A map Mprotect drops is
// replaced by a new one, a new key, so stale entries are never read;
// the memo releases them when the segment's next map shows up, and so
// holds rows for at most one map per segment base. A memo is not safe
// for concurrent use.
type ChainMemo struct {
	check EdgeChecker
	maps  []chainMap
}

// chainMap holds the memo's rows for one code map: one row per slot,
// allocated when a chain starting at that slot is first recorded.
type chainMap struct {
	m    *module.CodeMap
	base uint64
	rows []*chainRow
}

// chainRow holds, for one start slot, the chain end of every TNT packet,
// indexed by the packet's outcomes below a stop bit (pktCursor.tnt).
type chainRow [1 << (maxTNTBits + 1)]chainEnd

// chainEnd is one recorded chain: the IP after the packet's last
// outcome and the instructions retired to reach it, 0 if not recorded (a
// chain retires at least its JCCs).
type chainEnd struct {
	ip, instrs uint64
}

// NewChainMemo returns an empty memo for walks checked with c.
func NewChainMemo(c EdgeChecker) *ChainMemo { return &ChainMemo{check: c} }

// Checker returns the checker the memo was built for.
func (mm *ChainMemo) Checker() EdgeChecker { return mm.check }

// rows returns the rows of code map m, whose slot 0 lies at base and
// which has n slots. A map at the base of one the memo holds replaces
// it: segments never move, so the two are successive maps of one
// segment and Mprotect has dropped the older.
func (mm *ChainMemo) rows(m *module.CodeMap, base uint64, n int) []*chainRow {
	for i := range mm.maps {
		cm := &mm.maps[i]
		if cm.m == m {
			return cm.rows
		}
		if cm.base == base {
			*cm = chainMap{m: m, base: base, rows: make([]*chainRow, n)}
			return cm.rows
		}
	}
	mm.maps = append(mm.maps, chainMap{m: m, base: base, rows: make([]*chainRow, n)})
	return mm.maps[len(mm.maps)-1].rows
}

// lane is the chain lane: it steps straight-line runs, JMPs and JCCs by
// slot index over the code map holding the IP, asking the checker about
// each edge, for as long as the packet cursor stands at a TNT packet —
// then no asynchronous FUP can be pending, so nothing needs probing
// between steps. It leaves the lane, without retiring the instruction
// at the IP, at any other instruction, an undecodable slot, an IP
// outside the map, a map Mprotect has dropped, the instruction cap, and
// the TNT outcomes' end; Next's general path takes over from there. An
// edge the checker rejects is retired and yielded, and lane reports
// true.
//
// At a packet's first outcome the lane looks the packet up in the memo
// and, on a hit that fits the cap, crosses its whole chain at once. On a
// miss it steps, and records the chain once it has consumed the
// packet's last outcome; a chain cut short by anything that ends the
// lane is not recorded.
func (w *FlowWalk) lane() bool {
	c := &w.cur
	if c.tnt == 0 {
		return false
	}
	slots, base, ok := w.code.Span(w.as, w.ip)
	if !ok {
		return false
	}
	rows := w.memo.rows(w.code.Map(), base, len(slots))
	// The walk state lives in locals until the lane leaves. budget is
	// what the instruction cap leaves (all of uint64 without a cap).
	n := uint64(len(slots))
	ip, budget := w.ip, ^uint64(0)
	if w.maxInstrs > 0 {
		budget = w.maxInstrs - w.instrs
	}
	left := budget
	// from is the slot where the current packet's chain started, and
	// fromLeft what the cap left there, while the chain is being
	// recorded; from is n otherwise.
	from, fromLeft := n, uint64(0)
	for left > 0 && w.code.Live() {
		off := ip - base
		if off%isa.InstrSize != 0 || off/isa.InstrSize >= n {
			break
		}
		j := off / isa.InstrSize
		if c.bit == 0 && from == n {
			if r := rows[j]; r != nil {
				if e := r[c.tnt]; e.instrs != 0 && e.instrs <= left {
					ip, left = e.ip, left-e.instrs
					if !c.nextTNTByte() {
						if c.parse(); c.tnt == 0 {
							break
						}
					}
					continue
				}
			}
			from, fromLeft = j, left
		}
		s := &slots[j]
		if r := uint64(s.Run); r > 0 {
			// A straight-line run ends at a stop, or at the map's end.
			if r >= left || j+r >= n {
				r = min(r, left)
				left -= r
				ip += r * isa.InstrSize
				continue
			}
			left -= r
			ip += r * isa.InstrSize
			s = &slots[j+r]
		}
		in := &s.Instr
		class, target, taken, key := isa.CoFIDirect, in.BranchTarget(ip), true, uint8(0)
		switch in.Op {
		case isa.JMP:
		case isa.JCC:
			class, taken = isa.CoFICond, c.tnt>>c.bit&1 != 0
			if !taken {
				target = ip + isa.InstrSize
			}
			// The packet's last outcome moves the cursor on; key keeps it.
			if c.bit++; c.tnt>>c.bit == 1 {
				key = c.tnt
				if !c.nextTNTByte() {
					c.parse()
				}
			}
		default:
			w.ip, w.instrs = ip, w.instrs+budget-left
			return false
		}
		left--
		if !w.memo.check.ContainsEdge(ip, target, class) {
			w.ip, w.instrs = ip, w.instrs+budget-left
			return w.emit(class, in.Op, target, taken)
		}
		ip = target
		if key != 0 {
			if from < n {
				r := rows[from]
				if r == nil {
					r = new(chainRow)
					rows[from] = r
				}
				r[key] = chainEnd{ip: ip, instrs: fromLeft - left}
				from = n
			}
			if c.tnt == 0 {
				break
			}
		}
	}
	w.ip, w.instrs = ip, w.instrs+budget-left
	return false
}

// resync relocates the walk to the next PSB after an overflow or a
// desynchronization; it reports false when no packet is left.
func (w *FlowWalk) resync() bool {
	nip, ok := w.cur.seekPSB()
	if !ok {
		return false
	}
	w.resyncs++
	w.ip = nip
	return true
}

// Next walks to the next change-of-flow edge and reports whether it found
// one; at false the walk is over (see Err, EndIP, Instrs and Suspended).
func (w *FlowWalk) Next() bool {
	if w.done {
		return false
	}
	if w.resumed {
		// Resume hands back the instruction the walk suspended at: it was
		// fetched and counted then, and only its packet is taken now.
		w.resumed = false
		if found, more := w.take(w.held); found || !more {
			return found
		}
	}
	for {
		if w.memo != nil && w.lane() {
			return true
		}
		if w.maxInstrs > 0 && w.instrs >= w.maxInstrs {
			return w.finish(nil)
		}
		// A pending FUP(ip)+TIP pair is a kernel-performed asynchronous
		// transfer (signal delivery or sigreturn): relocate the walk
		// without fetching an instruction or recording a flow edge. The
		// shadow-stack state of stateful consumers stays intact — the
		// handler runs on the same stack discipline and sigreturn brings
		// the flow back. Async edges are not part of the on-disk CFG and
		// must not feed edge checks.
		fup, async := w.cur.pk.IP, w.cur.async
		if async && fup == w.ip {
			w.cur.advance() // to the TIP
			w.ip = w.cur.pk.IP
			w.cur.advance()
			continue
		}
		s := w.code.Cached(w.as, w.ip)
		if s == nil {
			s = w.code.Slot(w.as, w.ip)
		}
		if s != nil && s.Run > 0 {
			// Straight-line run: retire it in one step, stopping short
			// at a pending asynchronous FUP inside it and at maxInstrs.
			n := uint64(s.Run)
			if d := fup - w.ip; async && fup > w.ip && d%isa.InstrSize == 0 && d/isa.InstrSize <= n {
				n = d / isa.InstrSize
			}
			if w.maxInstrs > 0 && w.maxInstrs-w.instrs < n {
				n = w.maxInstrs - w.instrs
			}
			w.instrs += n
			w.ip += n * isa.InstrSize
			continue
		}
		var in isa.Instr
		if s != nil {
			in = s.Instr
		} else {
			w.raw = true
			raw, err := w.as.FetchInstr(w.ip)
			if err != nil {
				// The trace claims execution at an unfetchable address;
				// the caller keeps what was reconstructed so far. (A
				// hijacked flow can leave the window pointing at the
				// stack, which is itself a violation the slow path
				// reports.)
				return w.finish(fmt.Errorf("ipt: flow reconstruction fetch at %#x: %w", w.ip, err))
			}
			if in, err = isa.Decode(raw); err != nil {
				return w.finish(fmt.Errorf("ipt: flow reconstruction decode at %#x: %w", w.ip, err))
			}
		}
		w.instrs++

		switch in.Op {
		case isa.JMP, isa.CALL:
			t := in.BranchTarget(w.ip)
			if in.Op == isa.JMP && w.accepts(isa.CoFIDirect, t) {
				w.ip = t
				continue
			}
			return w.emit(isa.CoFIDirect, in.Op, t, true)
		case isa.JCC, isa.JMPR, isa.CALLR, isa.RET, isa.SYSCALL:
			if found, more := w.take(in); found || !more {
				return found
			}
		case isa.HALT:
			return w.finish(nil)
		default:
			w.ip += isa.InstrSize
		}
	}
}

// take retires the packet side of in, the instruction at the IP, which
// takes trace packets (JCC, JMPR, CALLR, RET or SYSCALL) and has been
// counted. It reports whether it found an edge and whether the walk goes
// on.
func (w *FlowWalk) take(in isa.Instr) (found, more bool) {
	switch in.Op {
	case isa.JCC:
		// A packet of another kind desynchronizes the walk; with no
		// packet left it is over.
		taken, ok := w.cur.nextTNT()
		if !ok {
			return false, w.missing(in)
		}
		t := w.ip + isa.InstrSize
		if taken {
			t = in.BranchTarget(w.ip)
		}
		if w.accepts(isa.CoFICond, t) {
			w.ip = t
			return false, true
		}
		return w.emit(isa.CoFICond, in.Op, t, taken), true
	case isa.JMPR, isa.CALLR, isa.RET:
		class := isa.CoFIIndirect
		if in.Op == isa.RET {
			class = isa.CoFIRet
		}
		t, ok := w.cur.nextIP(KindTIP)
		if !ok {
			return false, w.missing(in)
		}
		return w.emit(class, in.Op, t, true), true
	}
	// SYSCALL: a FUP, then TIP.PGD and TIP.PGE. When the data runs out
	// after the FUP, the walk suspends with the cursor back before it, so
	// a resumed walk takes all three.
	at := w.cur
	if _, ok := w.cur.nextIP(KindFUP); !ok {
		return false, w.missing(in)
	}
	if _, ok := w.cur.nextIP(KindTIPPGD); !ok {
		return false, w.truncated(in, &at)
	}
	pge, ok := w.cur.nextIP(KindTIPPGE)
	if !ok {
		return false, w.truncated(in, &at)
	}
	return w.emit(isa.CoFIFarTransfer, in.Op, pge, true), true
}

// truncated ends the walk at a SYSCALL whose FUP was taken but whose
// TIP.PGD or TIP.PGE is not the current packet: it suspends, with the
// cursor restored to at, its state before the FUP, when the data ran
// out, and finishes otherwise.
func (w *FlowWalk) truncated(in isa.Instr, at *pktCursor) bool {
	if !w.cur.dry() {
		return w.finish(nil)
	}
	w.cur = *at
	return w.suspend(in)
}

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

// tokenCursor walks the event list, serving TNT bits and IP packets in
// stream order and skipping synchronization-only packets.
type tokenCursor struct {
	evs []Event
	i   int
	bit int // next bit within evs[i] when it is a TNT packet
}

var errExhausted = errors.New("ipt: trace data exhausted")
var errDesync = errors.New("ipt: decoder desynchronized")

func (c *tokenCursor) skipMeta() { c.i, c.bit = c.skipFrom(c.i, c.bit) }

// skipFrom returns the position of the first event at or after (i, bit)
// that is not synchronization-only, without moving the cursor.
func (c *tokenCursor) skipFrom(i, bit int) (int, int) {
	for i < len(c.evs) {
		switch e := &c.evs[i]; e.Kind {
		case KindPAD, KindPIP, KindPSBEND, KindMODE, KindPSB:
			i++
		case KindFUP:
			if e.Ctx {
				i++ // PSB+ context, redundant with walk state
				continue
			}
			return i, bit
		case KindTNT:
			if bit >= e.TNTCount {
				i++
				bit = 0
				continue
			}
			return i, bit
		default:
			return i, bit
		}
	}
	return i, bit
}

// nextTNT pops the oldest pending conditional outcome.
func (c *tokenCursor) nextTNT() (bool, error) {
	c.skipMeta()
	if c.i >= len(c.evs) {
		return false, errExhausted
	}
	e := &c.evs[c.i]
	if e.Kind != KindTNT {
		if e.Kind == KindOVF {
			return false, errDesync
		}
		return false, fmt.Errorf("%w: want TNT, have %v at offset %d", errDesync, e.Kind, e.Off)
	}
	taken := e.TNTBits&(1<<c.bit) != 0
	c.bit++
	return taken, nil
}

// nextIP pops the next IP-bearing packet of the wanted kind.
func (c *tokenCursor) nextIP(want Kind) (Event, error) {
	c.skipMeta()
	if c.i >= len(c.evs) {
		return Event{}, errExhausted
	}
	e := c.evs[c.i]
	if e.Kind != want {
		if e.Kind == KindOVF {
			return Event{}, errDesync
		}
		return Event{}, fmt.Errorf("%w: want %v, have %v at offset %d", errDesync, want, e.Kind, e.Off)
	}
	c.i++
	c.bit = 0
	return e, nil
}

// tntReady reports whether the next event that is not
// synchronization-only is a TNT packet with an outcome left, moving the
// cursor to it. While it holds no asynchronous FUP+TIP pair can be
// pending: a pair pends only when a non-context FUP is the next such
// event.
func (c *tokenCursor) tntReady() bool {
	c.skipMeta()
	return c.i < len(c.evs) && c.evs[c.i].Kind == KindTNT
}

// pendingAsync reports whether an asynchronous-transfer pair is
// pending — a non-context FUP immediately followed by a TIP — and the
// FUP's IP, without moving the cursor. The kernel emits this shape at
// signal delivery (FUP = interrupted PC, TIP = handler entry) and at
// sigreturn (FUP = resume point of the handler, TIP = restored
// context). The jump is performed by the kernel, not by a retired
// branch, so the walker relocates without recording a flow edge: async
// edges are not part of the on-disk CFG and must not feed edge checks.
func (c *tokenCursor) pendingAsync() (fup uint64, ok bool) {
	i, _ := c.skipFrom(c.i, c.bit)
	if i >= len(c.evs) || c.evs[i].Kind != KindFUP || c.evs[i].Ctx {
		return 0, false
	}
	j, _ := c.skipFrom(i+1, 0)
	if j >= len(c.evs) || c.evs[j].Kind != KindTIP {
		return 0, false
	}
	return c.evs[i].IP, true
}

// takeAsync consumes the pending asynchronous-transfer pair that
// pendingAsync reported and returns the TIP target.
func (c *tokenCursor) takeAsync() uint64 {
	c.skipMeta()
	c.i++
	c.bit = 0
	c.skipMeta()
	t := c.evs[c.i].IP
	c.i++
	return t
}

// seekPSB advances to the next PSB and returns its context IP, used for
// the initial sync and for resynchronization after overflow.
func (c *tokenCursor) seekPSB() (uint64, bool) {
	for ; c.i < len(c.evs); c.i++ {
		if c.evs[c.i].Kind != KindPSB {
			continue
		}
		// Find the context FUP before PSBEND.
		for j := c.i + 1; j < len(c.evs); j++ {
			switch c.evs[j].Kind {
			case KindFUP:
				if c.evs[j].Ctx {
					c.i = j + 1
					c.bit = 0
					return c.evs[j].IP, true
				}
			case KindPSBEND:
				j = len(c.evs)
			}
		}
	}
	return 0, false
}

// DecodeFull is the instruction-flow-layer decoder (the Intel reference
// library analogue, §2/§5.3): it synchronizes at a PSB, then walks the
// program binaries, consuming TNT bits at conditional branches and TIP
// targets at indirect branches/returns to reconstruct the complete
// control flow. maxInstrs bounds the walk (0 = unlimited).
func DecodeFull(as *module.AddressSpace, buf []byte, maxInstrs uint64) (*FullTrace, error) {
	evs, err := DecodeFast(buf)
	if err != nil {
		return nil, err
	}
	return DecodeFullEvents(as, evs, maxInstrs)
}

// DecodeFullEvents runs the instruction-flow walk over already
// fast-decoded events and collects its output.
func DecodeFullEvents(as *module.AddressSpace, evs []Event, maxInstrs uint64) (*FullTrace, error) {
	w, err := NewFlowWalk(as, evs, maxInstrs)
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
// found without collecting them. DecodeFullEvents is the collecting
// consumer.
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
	cur       tokenCursor
	maxInstrs uint64
	code      module.FetchCursor
	memo      *ChainMemo

	// The pending async FUP as last probed at cursor position
	// (pkI, pkBit): the cursor stands still across a straight-line run,
	// so the probe is redone only after it moved.
	pkI, pkBit       int
	pkFUP            uint64
	pkAsync, pkValid bool

	startIP, ip uint64
	instrs      uint64
	resyncs     int
	edge        FlowEdge
	err         error
	done        bool
}

// NewFlowWalk synchronizes at the first PSB of evs and returns a walk
// positioned there, or ErrNoSync. maxInstrs bounds the walk (0 =
// unlimited).
func NewFlowWalk(as *module.AddressSpace, evs []Event, maxInstrs uint64) (FlowWalk, error) {
	w := FlowWalk{as: as, cur: tokenCursor{evs: evs}, maxInstrs: maxInstrs}
	ip, ok := w.cur.seekPSB()
	if !ok {
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

// Err returns the fetch or decode error that ended the walk, if any. Trace
// data running out is not an error.
func (w *FlowWalk) Err() error { return w.err }

// finish ends the walk with err.
func (w *FlowWalk) finish(err error) bool {
	w.done, w.err = true, err
	return false
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
// indexed by tntKey.
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

// tntKey indexes a chainRow by a TNT packet's outcomes and their count;
// ok is false for a packet holding more outcomes than a row has room
// for, which the decoder never produces.
func tntKey(e *Event) (key uint8, ok bool) {
	if e.TNTCount > maxTNTBits {
		return 0, false
	}
	return e.TNTBits&(1<<e.TNTCount-1) | 1<<e.TNTCount, true
}

// lane is the chain lane: it steps straight-line runs, JMPs and JCCs by
// slot index over the code map holding the IP, asking the checker about
// each edge, for as long as the token cursor stands at a TNT packet —
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
	if !c.tntReady() {
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
	tnt := &c.evs[c.i]
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
			if key, ok := tntKey(tnt); ok {
				if r := rows[j]; r != nil {
					if e := r[key]; e.instrs != 0 && e.instrs <= left {
						ip, left = e.ip, left-e.instrs
						c.bit = tnt.TNTCount
						if !c.tntReady() {
							break
						}
						tnt = &c.evs[c.i]
						continue
					}
				}
				from, fromLeft = j, left
			}
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
		class, target, taken := isa.CoFIDirect, in.BranchTarget(ip), true
		switch in.Op {
		case isa.JMP:
		case isa.JCC:
			class, taken = isa.CoFICond, tnt.TNTBits&(1<<c.bit) != 0
			c.bit++
			if !taken {
				target = ip + isa.InstrSize
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
		if c.bit >= tnt.TNTCount {
			if from < n {
				key, _ := tntKey(tnt)
				r := rows[from]
				if r == nil {
					r = new(chainRow)
					rows[from] = r
				}
				r[key] = chainEnd{ip: ip, instrs: fromLeft - left}
				from = n
			}
			if !c.tntReady() {
				break
			}
			tnt = &c.evs[c.i]
		}
	}
	w.ip, w.instrs = ip, w.instrs+budget-left
	return false
}

// resync relocates the walk to the next PSB after an overflow or a
// desynchronization.
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
// one; at false the walk is over (see Err, EndIP and Instrs).
func (w *FlowWalk) Next() bool {
	if w.done {
		return false
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
		// the flow back.
		if !w.pkValid || w.pkI != w.cur.i || w.pkBit != w.cur.bit {
			w.pkFUP, w.pkAsync = w.cur.pendingAsync()
			w.pkI, w.pkBit, w.pkValid = w.cur.i, w.cur.bit, true
		}
		fup, async := w.pkFUP, w.pkAsync
		if async && fup == w.ip {
			w.ip = w.cur.takeAsync()
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
		case isa.JCC:
			taken, err := w.cur.nextTNT()
			if errors.Is(err, errExhausted) {
				return w.finish(nil)
			}
			if err != nil {
				if w.resync() {
					continue
				}
				return w.finish(nil)
			}
			t := w.ip + isa.InstrSize
			if taken {
				t = in.BranchTarget(w.ip)
			}
			if w.accepts(isa.CoFICond, t) {
				w.ip = t
				continue
			}
			return w.emit(isa.CoFICond, in.Op, t, taken)
		case isa.JMPR, isa.CALLR, isa.RET:
			class := isa.CoFIIndirect
			if in.Op == isa.RET {
				class = isa.CoFIRet
			}
			e, err := w.cur.nextIP(KindTIP)
			if errors.Is(err, errExhausted) {
				return w.finish(nil)
			}
			if err != nil {
				if w.resync() {
					continue
				}
				return w.finish(nil)
			}
			return w.emit(class, in.Op, e.IP, true)
		case isa.SYSCALL:
			if _, err := w.cur.nextIP(KindFUP); err != nil {
				if !errors.Is(err, errExhausted) && w.resync() {
					continue
				}
				return w.finish(nil)
			}
			if _, err := w.cur.nextIP(KindTIPPGD); err != nil {
				return w.finish(nil)
			}
			pge, err := w.cur.nextIP(KindTIPPGE)
			if err != nil {
				return w.finish(nil)
			}
			return w.emit(isa.CoFIFarTransfer, in.Op, pge.IP, true)
		case isa.HALT:
			return w.finish(nil)
		default:
			w.ip += isa.InstrSize
		}
	}
}

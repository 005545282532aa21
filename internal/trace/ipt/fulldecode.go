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
type FlowWalk struct {
	as        *module.AddressSpace
	cur       tokenCursor
	maxInstrs uint64
	code      module.FetchCursor

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
			return w.emit(isa.CoFIDirect, in.Op, in.BranchTarget(w.ip), true)
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

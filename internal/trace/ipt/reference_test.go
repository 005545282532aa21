package ipt

import (
	"errors"
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/module"
	"flowguard/internal/trace"
)

var errExhausted = errors.New("ipt: trace data exhausted")
var errDesync = errors.New("ipt: decoder desynchronized")

// tokenCursor walks the event list, serving TNT bits and IP packets in
// stream order and skipping synchronization-only packets. It is the
// reference walk's own cursor over DecodeFast's events; the walk under
// test pulls packets from the bytes (pktCursor) and shares none of it.
type tokenCursor struct {
	evs []Event
	i   int
	bit int // next bit within evs[i] when it is a TNT packet
}

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

// nextAsync consumes the asynchronous-transfer pair pending at ip — a
// non-context FUP whose IP is ip, immediately followed by a TIP — and
// returns the TIP target; on mismatch the cursor is restored. It is the
// per-instruction probe of decodeFullReference.
func (c *tokenCursor) nextAsync(ip uint64) (uint64, bool) {
	si, sbit := c.i, c.bit
	c.skipMeta()
	if c.i >= len(c.evs) {
		c.i, c.bit = si, sbit
		return 0, false
	}
	e := c.evs[c.i]
	if e.Kind != KindFUP || e.Ctx || e.IP != ip {
		c.i, c.bit = si, sbit
		return 0, false
	}
	c.i++
	c.bit = 0
	c.skipMeta()
	if c.i >= len(c.evs) || c.evs[c.i].Kind != KindTIP {
		c.i, c.bit = si, sbit
		return 0, false
	}
	t := c.evs[c.i].IP
	c.i++
	c.bit = 0
	return t, true
}

// decodeFullReference is the instruction-by-instruction walk the
// block-stepping FlowWalk must reproduce exactly: at every retired
// instruction it probes for an asynchronous FUP, fetches the instruction
// through the address space and decodes it, never consulting a code map.
func decodeFullReference(as *module.AddressSpace, buf []byte, maxInstrs uint64) (*FullTrace, error) {
	evs, err := DecodeFast(buf)
	if err != nil {
		return nil, err
	}
	cur := &tokenCursor{evs: evs}
	ip, ok := cur.seekPSB()
	if !ok {
		return nil, ErrNoSync
	}
	ft := &FullTrace{StartIP: ip}

	resync := func() bool {
		nip, ok := cur.seekPSB()
		if !ok {
			return false
		}
		ft.Resyncs++
		ft.ResyncPoints = append(ft.ResyncPoints, len(ft.Flow))
		ip = nip
		return true
	}

	for {
		if maxInstrs > 0 && ft.Instrs >= maxInstrs {
			break
		}
		if t, ok := cur.nextAsync(ip); ok {
			ip = t
			continue
		}
		raw, err := as.FetchInstr(ip)
		if err != nil {
			ft.EndIP = ip
			return ft, fmt.Errorf("ipt: flow reconstruction fetch at %#x: %w", ip, err)
		}
		in, err := isa.Decode(raw)
		if err != nil {
			ft.EndIP = ip
			return ft, fmt.Errorf("ipt: flow reconstruction decode at %#x: %w", ip, err)
		}
		ft.Instrs++
		next := ip + isa.InstrSize

		switch in.Op {
		case isa.JMP, isa.CALL:
			t := in.BranchTarget(ip)
			ft.Flow = append(ft.Flow, trace.Branch{Class: isa.CoFIDirect, Source: ip, Target: t, Taken: true})
			ip = t
		case isa.JCC:
			taken, err := cur.nextTNT()
			if errors.Is(err, errExhausted) {
				ft.EndIP = ip
				return ft, nil
			}
			if err != nil {
				if resync() {
					continue
				}
				ft.EndIP = ip
				return ft, nil
			}
			t := next
			if taken {
				t = in.BranchTarget(ip)
			}
			ft.Flow = append(ft.Flow, trace.Branch{Class: isa.CoFICond, Source: ip, Target: t, Taken: taken})
			ip = t
		case isa.JMPR, isa.CALLR, isa.RET:
			class := isa.CoFIIndirect
			if in.Op == isa.RET {
				class = isa.CoFIRet
			}
			e, err := cur.nextIP(KindTIP)
			if errors.Is(err, errExhausted) {
				ft.EndIP = ip
				return ft, nil
			}
			if err != nil {
				if resync() {
					continue
				}
				ft.EndIP = ip
				return ft, nil
			}
			ft.Flow = append(ft.Flow, trace.Branch{Class: class, Source: ip, Target: e.IP, Taken: true})
			ip = e.IP
		case isa.SYSCALL:
			if _, err := cur.nextIP(KindFUP); err != nil {
				if errors.Is(err, errExhausted) {
					ft.EndIP = ip
					return ft, nil
				}
				if resync() {
					continue
				}
				ft.EndIP = ip
				return ft, nil
			}
			if _, err := cur.nextIP(KindTIPPGD); err != nil {
				ft.EndIP = ip
				return ft, nil
			}
			pge, err := cur.nextIP(KindTIPPGE)
			if err != nil {
				ft.EndIP = ip
				return ft, nil
			}
			ft.Flow = append(ft.Flow, trace.Branch{Class: isa.CoFIFarTransfer, Source: ip, Target: pge.IP, Taken: true})
			ip = pge.IP
		case isa.HALT:
			ft.EndIP = ip
			return ft, nil
		default:
			ip = next
		}
	}
	ft.EndIP = ip
	return ft, nil
}

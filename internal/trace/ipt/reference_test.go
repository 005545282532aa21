package ipt

import (
	"errors"
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/module"
	"flowguard/internal/trace"
)

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

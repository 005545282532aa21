package ipt

import "errors"

// Event is one decoded packet from the fast (packet-grammar-only) layer.
// The one-byte fields come first so that they share one word.
type Event struct {
	Kind Kind
	// Suppressed marks a TIP-family packet whose IP payload was
	// suppressed (ipbytes = 0 for TIP.PGD at far transfers).
	Suppressed bool
	// Ctx marks FUP packets inside a PSB+ region: decoder
	// synchronization context rather than an asynchronous event.
	Ctx bool
	// TNTBits holds up to 6 outcomes, oldest in bit 0.
	TNTBits  uint8
	TNTCount int
	// IP is the reconstructed instruction pointer for TIP/TIP.PGE/
	// TIP.PGD/FUP packets.
	IP uint64
	// CR3 carries the PIP payload.
	CR3 uint64
	// Off is the byte offset of the packet header in the stream.
	Off int
}

// ErrNoSync reports a stream with no PSB to synchronize on.
var ErrNoSync = errors.New("ipt: no PSB sync point in stream")

// Sync returns the offset of the first PSB at or after from, or -1.
func Sync(buf []byte, from int) int {
	for i := from; i+PSBSize <= len(buf); i++ {
		if isPSBAt(buf, i) {
			return i
		}
	}
	return -1
}

func isPSBAt(buf []byte, i int) bool {
	if i+PSBSize > len(buf) {
		return false
	}
	for j := 0; j < psbRepeat; j++ {
		if buf[i+2*j] != 0x02 || buf[i+2*j+1] != extPSB {
			return false
		}
	}
	return true
}

// SyncPoints returns the offsets of every PSB in the stream; these are the
// boundaries the parallel fast decoder splits at (§5.3).
func SyncPoints(buf []byte) []int {
	var pts []int
	for i := 0; i+PSBSize <= len(buf); {
		if isPSBAt(buf, i) {
			pts = append(pts, i)
			i += PSBSize
		} else {
			i++
		}
	}
	return pts
}

// DecodeFast scans packet bytes starting at a packet boundary (offset 0
// must be a packet header; use Sync to find one after a ToPA wrap). It
// never consults program binaries — this is the cheap layer the fast path
// is built on. A packet truncated by the end of the buffer terminates the
// scan without error, matching a circular buffer cut mid-packet.
func DecodeFast(buf []byte) ([]Event, error) {
	s := pktScan{buf: buf}
	var evs []Event
	for {
		var e Event
		if ok, err := s.next(&e); !ok {
			return evs, err
		}
		evs = append(evs, e)
	}
}

// pktScan is the packet grammar's decoder state over one buffer: the
// offset of the next packet header, and the last-IP and PSB+ state the
// grammar carries from packet to packet. DecodeFast and the flow walk's
// packet cursor both step it with next, so they read one grammar.
type pktScan struct {
	buf    []byte
	off    int // the next packet header
	lastIP uint64
	inPSB  bool
}

// next decodes the packet at off into e, stepping over PAD, and moves
// off past it. It reports false at the end of the buffer, at a packet
// the end cuts short (not an error: a circular buffer is cut
// mid-packet) and at a grammar error, which it returns; off then stays
// at that packet, so a repeated call reports the same.
func (s *pktScan) next(e *Event) (bool, error) {
	buf, i, n := s.buf, s.off, len(s.buf)
	var err error
	for i < n {
		b := buf[i]
		t := pktTab[b]
		switch t & pcClassMask {
		case pcPAD:
			i++
			// PAD fills ToPA region tails: skip whole zero words.
			for i+8 <= n && leUint64(buf[i:]) == 0 {
				i += 8
			}
			continue
		case pcTNT:
			tn := int(t >> 8)
			*e = Event{Kind: KindTNT, TNTBits: (b >> 1) & (1<<tn - 1), TNTCount: tn, Off: i}
			s.off = i + 1
			return true, nil
		case pcTIP, pcTIPRec:
			plen := int(t & pcLenMask)
			if i+plen > n {
				break // truncated tail
			}
			ipb, kind := b>>5, Kind(t>>8)
			if ipb != 0 {
				s.lastIP = ipReconstruct(ipb, buf[i+1:i+plen], s.lastIP)
			}
			*e = Event{Kind: kind, Suppressed: ipb == 0, Ctx: kind == KindFUP && s.inPSB, IP: s.lastIP, Off: i}
			s.off = i + plen
			return true, nil
		case pcExt:
			if i+1 >= n {
				break // truncated tail
			}
			plen := 2
			*e = Event{Off: i}
			switch buf[i+1] {
			case extPSB:
				plen = PSBSize
				if isPSBAt(buf, i) {
					e.Kind = KindPSB
					s.lastIP, s.inPSB = 0, true
				} else if i+plen <= n {
					err = malformedf("malformed PSB at %d", i)
				}
			case extPSBEND:
				e.Kind = KindPSBEND
				s.inPSB = false
			case extPIP:
				if plen = 10; i+plen <= n {
					e.Kind, e.CR3 = KindPIP, leUint64(buf[i+2:i+10])
				}
			case extMODE:
				if plen = modePacketLen; i+plen <= n {
					e.Kind, e.TNTBits = KindMODE, buf[i+2]
				}
			case extOVF:
				e.Kind = KindOVF
			default:
				err = malformedf("unknown extended opcode %#02x at %d", buf[i+1], i)
			}
			if err != nil || i+plen > n {
				break // malformed, or a truncated tail
			}
			s.off = i + plen
			return true, nil
		default: // pcBad
			if b&1 == 0 {
				err = malformedf("malformed TNT byte %#02x at %d", b, i)
			} else {
				err = malformedf("unknown packet header %#02x at %d", b, i)
			}
		}
		break
	}
	s.off = i
	return false, err
}

// TIPRecord is one checked unit of the fast path: a TIP target plus the
// signature of the TNT run observed since the previous TIP (the
// information §4.3 attaches to ITC-CFG edges). The record does not carry
// the run's length: a run over TNTRunCap has the wildcard signature
// TNTSigLongRun whatever its length, so the scanners count a run's
// outcomes only until it passes the cap and skip the rest uncounted.
//
// The layout is deliberately 32 bytes — two records per cache line, no
// record ever straddling one — because the scanners emit these in bulk on
// the hot path and the checkers stream over them again per check.
type TIPRecord struct {
	// IP is the indirect branch target carried by the TIP packet.
	IP uint64
	// TNTSig is the signature of the conditional-branch outcomes seen
	// between the previous TIP and this one; TNTSigEmpty if none,
	// TNTSigLongRun if more than TNTRunCap.
	TNTSig uint64
	// Off is the stream offset (diagnostics).
	Off int
	// Resync marks the first TIP decoded after an overflow-forced
	// resynchronization: the packets between the OVF and the next PSB
	// were discarded, so this record is NOT control-flow-adjacent to the
	// record before it. Pair-wise edge checks must not treat the two as
	// a consecutive edge.
	Resync bool
	// Async marks a TIP directly following a non-context FUP: the
	// kernel's asynchronous-transfer shape (signal delivery into a
	// handler, sigreturn restoring the interrupted flow). The jump it
	// records was performed by the kernel, not by a retired branch, so
	// pair-wise edge checks must admit it without consulting the CFG —
	// like Resync, the record is not control-flow-adjacent to its
	// predecessor.
	Async bool
	// Mod and Memo are consumer annotations, not decoded state: the
	// decoders emit every record with both zero, including records
	// decoded into reused storage, and never read them. A checker that
	// judges the same retained records check after check caches there
	// what it learned about a record (the guard: its module class, and
	// whether the edge into it hit the high-credit cache), so each record
	// is resolved once. They fill what would be the record's padding:
	// the record stays 32 bytes, two per cache line.
	Mod, Memo uint8
}

// TNTSigEmpty is the signature of an empty TNT run.
const TNTSigEmpty uint64 = 0xcbf29ce484222325 // FNV-1a offset basis

// TNTRunCap bounds the conditional-branch run folded into a signature.
// Short runs carry the direct-fork information that repairs the AIA
// derogation (Figure 4); longer runs are data-dependent loop iteration
// counts, which would make every trained signature input-specific — the
// path explosion §4.2 deliberately avoids. Runs beyond the cap collapse
// to TNTSigLongRun.
const TNTRunCap = 16

// TNTSigLongRun is the wildcard signature of any capped run.
const TNTSigLongRun uint64 = 0x9e3779b97f4a7c15

// TNTSigAppend folds one conditional outcome into a running signature.
func TNTSigAppend(sig uint64, taken bool) uint64 {
	b := uint64(1)
	if taken {
		b = 2
	}
	return (sig ^ b) * 0x100000001b3
}

// ExtractTIPs folds a fast-decoded event stream into the TIP-window form
// the fast path checks: one record per TIP packet, each carrying the TNT
// signature accumulated since the previous TIP. Far-transfer and PSB
// context packets do not produce records (a syscall is a fall-through on
// the CFG) but TNT runs accumulate across them.
//
// An OVF packet means trace bytes were lost: IP compression and TNT
// attribution are unreliable until the next PSB resets decoder state, so
// packets between the OVF and that PSB are discarded (real-IPT decoders
// resynchronize the same way) and the first TIP afterwards is flagged
// Resync.
func ExtractTIPs(evs []Event) []TIPRecord {
	var out []TIPRecord
	sig := TNTSigEmpty
	n := 0
	skipping := false
	resync := false
	prevFUP := false
	for _, e := range evs {
		// A TIP directly following a non-context FUP is the kernel's
		// asynchronous-transfer shape (TIPRecord.Async). PAD never
		// appears here — the batch decoder emits no events for it — so
		// adjacency over events matches the incremental scanner, which
		// carries the flag across PAD bytes.
		async := prevFUP
		prevFUP = e.Kind == KindFUP && !e.Ctx
		switch e.Kind {
		case KindTNT:
			if skipping {
				continue
			}
			for k := 0; k < e.TNTCount; k++ {
				sig = TNTSigAppend(sig, e.TNTBits&(1<<k) != 0)
				n++
			}
		case KindTIP:
			if skipping {
				continue
			}
			if n > TNTRunCap {
				sig = TNTSigLongRun
			}
			out = append(out, TIPRecord{IP: e.IP, TNTSig: sig, Off: e.Off, Resync: resync, Async: async})
			sig, n = TNTSigEmpty, 0
			resync = false
		case KindPSB:
			if skipping {
				skipping = false
				resync = true
			}
		case KindOVF:
			// Data lost: everything up to the next sync point is
			// unreliable.
			sig, n = TNTSigEmpty, 0
			skipping = true
		}
	}
	return out
}

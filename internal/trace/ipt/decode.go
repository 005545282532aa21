package ipt

import (
	"errors"
	"sync"
)

// Event is one decoded packet from the fast (packet-grammar-only) layer.
// The one-byte fields come first so that they share one word: the slow
// path keeps a whole window's events.
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
	return decodeFastFrom(nil, buf, 0)
}

// AppendEvents is DecodeFast appending to evs: a caller that decodes
// window after window passes the previous result back, truncated to
// length zero, and reuses its storage.
func AppendEvents(evs []Event, buf []byte) ([]Event, error) {
	return decodeFastFrom(evs, buf, 0)
}

func decodeFastFrom(evs []Event, buf []byte, base int) ([]Event, error) {
	lastIP := uint64(0)
	inPSB := false
	i := 0
	n := len(buf)
	for i < n {
		b := buf[i]
		e := pktTab[b]
		switch e & pcClassMask {
		case pcTNT:
			tn := int(e >> 8)
			evs = append(evs, Event{
				Kind:     KindTNT,
				TNTBits:  (b >> 1) & (1<<tn - 1),
				TNTCount: tn,
				Off:      base + i,
			})
			i++
		case pcTIP, pcTIPRec:
			plen := int(e & pcLenMask)
			if i+plen > n {
				return evs, nil // truncated tail
			}
			kind := Kind(e >> 8)
			ev := Event{Kind: kind, Off: base + i}
			if ipb := b >> 5; ipb == 0 {
				ev.Suppressed = true
				ev.IP = lastIP
			} else {
				lastIP = ipReconstruct(ipb, buf[i+1:i+plen], lastIP)
				ev.IP = lastIP
			}
			if kind == KindFUP && inPSB {
				ev.Ctx = true
			}
			evs = append(evs, ev)
			i += plen
		case pcPAD:
			i++
			// PAD fills ToPA region tails: skip whole zero words.
			for i+8 <= n && leUint64(buf[i:]) == 0 {
				i += 8
			}
		case pcExt:
			if i+1 >= n {
				return evs, nil // truncated tail
			}
			switch buf[i+1] {
			case extPSB:
				if !isPSBAt(buf, i) {
					if i+PSBSize > n {
						return evs, nil
					}
					return evs, malformedf("malformed PSB at %d", base+i)
				}
				evs = append(evs, Event{Kind: KindPSB, Off: base + i})
				lastIP = 0
				inPSB = true
				i += PSBSize
			case extPSBEND:
				evs = append(evs, Event{Kind: KindPSBEND, Off: base + i})
				inPSB = false
				i += 2
			case extPIP:
				if i+10 > n {
					return evs, nil
				}
				evs = append(evs, Event{Kind: KindPIP, CR3: leUint64(buf[i+2 : i+10]), Off: base + i})
				i += 10
			case extMODE:
				if i+modePacketLen > n {
					return evs, nil
				}
				evs = append(evs, Event{Kind: KindMODE, TNTBits: buf[i+2], Off: base + i})
				i += modePacketLen
			case extOVF:
				evs = append(evs, Event{Kind: KindOVF, Off: base + i})
				i += 2
			default:
				return evs, malformedf("unknown extended opcode %#02x at %d", buf[i+1], base+i)
			}
		default: // pcBad
			if b&1 == 0 {
				return evs, malformedf("malformed TNT byte %#02x at %d", b, base+i)
			}
			return evs, malformedf("unknown packet header %#02x at %d", b, base+i)
		}
	}
	return evs, nil
}

// DecodeFastParallel decodes the stream with one worker per PSB-delimited
// segment, exploiting that PSB resets decoder state (§5.3: "with the help
// of packet stream boundary packets... this process can be done in
// parallel"). The leading bytes before the first PSB are decoded inline
// when the stream starts at a packet boundary; after a wrap, pass a
// buffer already Sync'd to a PSB.
func DecodeFastParallel(buf []byte, workers int) ([]Event, error) {
	pts := SyncPoints(buf)
	if len(pts) == 0 || workers <= 1 {
		return DecodeFast(buf)
	}
	segs := make([][2]int, 0, len(pts)+1)
	if pts[0] != 0 {
		segs = append(segs, [2]int{0, pts[0]})
	}
	for i, p := range pts {
		end := len(buf)
		if i+1 < len(pts) {
			end = pts[i+1]
		}
		segs = append(segs, [2]int{p, end})
	}
	results := make([][]Event, len(segs))
	errs := make([]error, len(segs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for si, s := range segs {
		wg.Add(1)
		go func(si int, lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[si], errs[si] = decodeFastFrom(nil, buf[lo:hi], lo)
		}(si, s[0], s[1])
	}
	wg.Wait()
	var out []Event
	for si := range segs {
		// A segment cut at the next PSB may end mid-packet only if the
		// stream is corrupt; the encoder never splits packets across a
		// PSB. Truncation errors are therefore real errors here except
		// for the final segment.
		if errs[si] != nil {
			return nil, errs[si]
		}
		out = append(out, results[si]...)
	}
	return out, nil
}

// TIPRecord is one checked unit of the fast path: a TIP target plus the
// signature of the TNT run observed since the previous TIP (the
// information §4.3 attaches to ITC-CFG edges).
//
// The layout is deliberately 32 bytes — two records per cache line, no
// record ever straddling one — because the scanners emit these in bulk on
// the hot path and the checkers stream over them again per check.
type TIPRecord struct {
	// IP is the indirect branch target carried by the TIP packet.
	IP uint64
	// TNTSig is the signature of the conditional-branch outcomes seen
	// between the previous TIP and this one; TNTSigEmpty if none.
	TNTSig uint64
	// Off is the stream offset (diagnostics).
	Off int
	// TNTLen is the number of conditional outcomes folded into TNTSig.
	// 32 bits keep the record at two per cache line; a run that long
	// (hundreds of megabytes of contiguous TNT) collapsed its signature
	// to TNTSigLongRun at TNTRunCap outcomes already.
	TNTLen int32
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
			out = append(out, TIPRecord{IP: e.IP, TNTSig: sig, TNTLen: int32(n), Off: e.Off, Resync: resync, Async: async})
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

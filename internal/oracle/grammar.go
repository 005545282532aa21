// Package oracle is the deliberately naive reference implementation of
// the hybrid CFI checker, used only for differential testing. Where the
// production pipeline (internal/guard + ipt.WindowDecoder) is
// incremental, cached, striped, and allocation-free, the oracle is
// straight-line and allocation-happy: every check re-parses the whole
// byte stream from scratch, every graph lookup is a linear scan or a map
// probe, and every intermediate result is a freshly built slice. It
// shares no decode or check code with the optimized paths — the packet
// grammar, the ITC edge set, the instruction-flow walk, the shadow
// stack, and the window policy are all re-derived here from the written
// specification (the ipt package doc comment and the paper's §5), so a
// disagreement between the two pipelines is evidence of a bug in one of
// them rather than a shared misunderstanding.
//
// The only production packages the oracle may import are the ground
// truth both pipelines are defined against: the instruction set
// (internal/isa), the address space (internal/module), and the static
// O-CFG (internal/cfg). An import-graph test enforces the boundary.
package oracle

import "fmt"

// Packet grammar constants, re-declared from the written format
// specification (matching numbers are the spec, not shared code).
const (
	hdrTIP    = 0x0D
	hdrTIPPGE = 0x11
	hdrTIPPGD = 0x01
	hdrFUP    = 0x1D

	extPSB    = 0x82
	extPSBEND = 0x23
	extPIP    = 0x43
	extOVF    = 0xF3
	extMODE   = 0x99

	psbRepeat = 8
	psbSize   = 2 * psbRepeat

	maxTNTBits = 6
)

// TNT-signature constants (FNV-1a over branch outcomes, long runs
// collapsed to a wildcard), re-declared from the specification.
const (
	tntSigEmpty   uint64 = 0xcbf29ce484222325
	tntSigLongRun uint64 = 0x9e3779b97f4a7c15
	tntRunCap            = 16
)

// sigAppend folds one branch outcome into a TNT signature.
func sigAppend(sig uint64, taken bool) uint64 {
	b := uint64(1)
	if taken {
		b = 2
	}
	return (sig ^ b) * 0x100000001b3
}

// PacketKind discriminates parsed packets.
type PacketKind uint8

// Packet kinds.
const (
	PkPAD PacketKind = iota
	PkTNT
	PkTIP
	PkTIPPGE
	PkTIPPGD
	PkFUP
	PkPSB
	PkPSBEND
	PkPIP
	PkOVF
	PkMODE
)

// Packet is one fully parsed packet, carrying enough to re-serialize it
// byte-identically.
type Packet struct {
	Kind PacketKind
	// Off is the stream offset of the header byte.
	Off int
	// IPB is the TIP-family ipbytes field (payload width selector).
	IPB uint8
	// IP is the reconstructed absolute target of a TIP-family packet.
	IP uint64
	// TNTBits / TNTCount carry a short TNT payload (bit k = k-th oldest
	// outcome).
	TNTBits  uint8
	TNTCount int
	// CR3 is a PIP payload.
	CR3 uint64
	// Ctx marks a FUP between PSB and PSBEND (context, not a branch).
	Ctx bool
}

// isTIPFamily reports whether the packet carries an IP payload.
func (p Packet) isTIPFamily() bool {
	switch p.Kind {
	case PkTIP, PkTIPPGE, PkTIPPGD, PkFUP:
		return true
	}
	return false
}

// findPSB scans for the first complete PSB at or after from, one byte at
// a time (the textbook version of ipt.Sync).
func findPSB(buf []byte, from int) int {
	for i := from; i+psbSize <= len(buf); i++ {
		if psbAt(buf, i) {
			return i
		}
	}
	return -1
}

// psbAt reports a complete PSB at offset i.
func psbAt(buf []byte, i int) bool {
	if i+psbSize > len(buf) {
		return false
	}
	for j := 0; j < psbRepeat; j++ {
		if buf[i+2*j] != 0x02 || buf[i+2*j+1] != extPSB {
			return false
		}
	}
	return true
}

// psbPrefix reports whether buf (shorter than a full PSB) could be the
// beginning of one.
func psbPrefix(buf []byte) bool {
	for j, b := range buf {
		want := byte(0x02)
		if j%2 == 1 {
			want = extPSB
		}
		if b != want {
			return false
		}
	}
	return true
}

// findAllPSBs returns every sync point, stepping over each found PSB
// (the textbook version of ipt.SyncPoints).
func findAllPSBs(buf []byte) []int {
	var pts []int
	i := 0
	for i+psbSize <= len(buf) {
		if psbAt(buf, i) {
			pts = append(pts, i)
			i += psbSize
			continue
		}
		i++
	}
	return pts
}

// tntLen derives the payload bit count of a short TNT byte: the stop bit
// is the highest set bit, the payload sits below it above bit 0.
func tntLen(b byte) int {
	for k := 7; k >= 1; k-- {
		if b&(1<<k) != 0 {
			return k - 1
		}
	}
	return -1
}

// parse decodes buf into packets, appended to pkts (a caller re-parsing
// at every check passes its previous result truncated to zero length,
// so the backing array is reused). base offsets the reported packet
// positions. Two dialects exist, matching the two production decoders:
//
//   - stream = true mirrors the windowed decoder: bytes before the first
//     complete PSB are skipped wholesale (a wrapped buffer may start
//     mid-packet), and a trailing partial PSB that provably cannot
//     complete is malformed.
//   - stream = false mirrors the batch decoder: parsing starts at offset
//     0, and any truncated tail — even a provably bad partial PSB — is a
//     clean stop.
//
// Truncated tails never error in either dialect; the returned consumed
// count marks where parsing stopped.
func parse(pkts []Packet, buf []byte, base int, stream bool) (_ []Packet, consumed int, err error) {
	i := 0
	if stream {
		p := findPSB(buf, 0)
		if p < 0 {
			return pkts, 0, nil
		}
		i = p
	}
	lastIP := uint64(0)
	inPSB := false
	for i < len(buf) {
		b := buf[i]
		switch {
		case b == 0x00:
			pkts = append(pkts, Packet{Kind: PkPAD, Off: base + i})
			i++
		case b == 0x02:
			if i+1 >= len(buf) {
				return pkts, i, nil
			}
			switch buf[i+1] {
			case extPSB:
				if i+psbSize > len(buf) {
					if stream && !psbPrefix(buf[i:]) {
						return pkts, i, fmt.Errorf("oracle: malformed PSB at %d", base+i)
					}
					return pkts, i, nil
				}
				if !psbAt(buf, i) {
					return pkts, i, fmt.Errorf("oracle: malformed PSB at %d", base+i)
				}
				pkts = append(pkts, Packet{Kind: PkPSB, Off: base + i})
				lastIP = 0
				inPSB = true
				i += psbSize
			case extPSBEND:
				pkts = append(pkts, Packet{Kind: PkPSBEND, Off: base + i})
				inPSB = false
				i += 2
			case extPIP:
				if i+10 > len(buf) {
					return pkts, i, nil
				}
				var cr3 uint64
				for j := 0; j < 8; j++ {
					cr3 |= uint64(buf[i+2+j]) << (8 * j)
				}
				pkts = append(pkts, Packet{Kind: PkPIP, CR3: cr3, Off: base + i})
				i += 10
			case extOVF:
				pkts = append(pkts, Packet{Kind: PkOVF, Off: base + i})
				i += 2
			case extMODE:
				if i+3 > len(buf) {
					return pkts, i, nil
				}
				pkts = append(pkts, Packet{Kind: PkMODE, TNTBits: buf[i+2], Off: base + i})
				i += 3
			default:
				return pkts, i, fmt.Errorf("oracle: unknown extended opcode %#02x at %d", buf[i+1], base+i)
			}
		case b&1 == 0:
			n := tntLen(b)
			if n < 1 || n > maxTNTBits {
				return pkts, i, fmt.Errorf("oracle: malformed TNT byte %#02x at %d", b, base+i)
			}
			pkts = append(pkts, Packet{
				Kind:     PkTNT,
				TNTBits:  (b >> 1) & (1<<n - 1),
				TNTCount: n,
				Off:      base + i,
			})
			i++
		default:
			op := b & 0x1f
			var kind PacketKind
			switch op {
			case hdrTIP:
				kind = PkTIP
			case hdrTIPPGE:
				kind = PkTIPPGE
			case hdrTIPPGD:
				kind = PkTIPPGD
			case hdrFUP:
				kind = PkFUP
			default:
				return pkts, i, fmt.Errorf("oracle: unknown packet header %#02x at %d", b, base+i)
			}
			ipb := b >> 5
			n := payloadLen(ipb)
			if i+1+n > len(buf) {
				return pkts, i, nil
			}
			pk := Packet{Kind: kind, Off: base + i, IPB: ipb}
			switch ipb {
			case 0:
				pk.IP = lastIP
			case 1:
				lastIP = lastIP&^0xffff | uint64(buf[i+1]) | uint64(buf[i+2])<<8
				pk.IP = lastIP
			case 2:
				var v uint64
				for j := 0; j < 4; j++ {
					v |= uint64(buf[i+1+j]) << (8 * j)
				}
				lastIP = lastIP&^0xffffffff | v
				pk.IP = lastIP
			default:
				var v uint64
				for j := 0; j < 8; j++ {
					v |= uint64(buf[i+1+j]) << (8 * j)
				}
				lastIP = v
				pk.IP = lastIP
			}
			if kind == PkFUP && inPSB {
				pk.Ctx = true
			}
			pkts = append(pkts, pk)
			i += 1 + n
		}
	}
	return pkts, i, nil
}

// payloadLen maps an ipbytes field to its payload width.
func payloadLen(ipb uint8) int {
	switch ipb {
	case 0:
		return 0
	case 1:
		return 2
	case 2:
		return 4
	default:
		return 8
	}
}

// ParsePackets is the batch dialect of the naive parser, exported for
// the property layer (round-trip and mutation testing). It reports how
// many bytes were consumed; a truncated tail stops cleanly before err.
func ParsePackets(buf []byte) ([]Packet, int, error) {
	return parse(nil, buf, 0, false)
}

// Serialize re-encodes packets byte-identically to the stream they were
// parsed from (the round-trip property), and is also the mutation
// vehicle: callers may widen IPB fields and rewrite IPs before
// re-encoding.
func Serialize(pkts []Packet) []byte {
	var out []byte
	for _, p := range pkts {
		switch p.Kind {
		case PkPAD:
			out = append(out, 0x00)
		case PkTNT:
			out = append(out, byte(1)<<(p.TNTCount+1)|(p.TNTBits&(1<<p.TNTCount-1))<<1)
		case PkTIP, PkTIPPGE, PkTIPPGD, PkFUP:
			var op byte
			switch p.Kind {
			case PkTIP:
				op = hdrTIP
			case PkTIPPGE:
				op = hdrTIPPGE
			case PkTIPPGD:
				op = hdrTIPPGD
			default:
				op = hdrFUP
			}
			out = append(out, op|p.IPB<<5)
			for j := 0; j < payloadLen(p.IPB); j++ {
				out = append(out, byte(p.IP>>(8*j)))
			}
		case PkPSB:
			for j := 0; j < psbRepeat; j++ {
				out = append(out, 0x02, extPSB)
			}
		case PkPSBEND:
			out = append(out, 0x02, extPSBEND)
		case PkPIP:
			out = append(out, 0x02, extPIP)
			for j := 0; j < 8; j++ {
				out = append(out, byte(p.CR3>>(8*j)))
			}
		case PkOVF:
			out = append(out, 0x02, extOVF)
		case PkMODE:
			out = append(out, 0x02, extMODE, p.TNTBits)
		}
	}
	return out
}

// tipRec is the oracle's TIP window record: the branch target annotated
// with the TNT signature accumulated since the previous record.
type tipRec struct {
	IP     uint64
	Sig    uint64
	SigLen int
	Off    int
	Resync bool
	// Async marks a TIP directly following a non-context FUP: the
	// kernel's asynchronous-transfer shape (signal delivery, sigreturn).
	// Like Resync, the record is not control-flow-adjacent to its
	// predecessor and edge checks admit the pair unchecked.
	Async bool
}

// extractRecords folds TNT runs into signatures and emits one record per
// TIP packet, suppressing everything between an overflow and the next
// sync point (whose first record is flagged Resync).
func extractRecords(pkts []Packet) []tipRec {
	sig, n := tntSigEmpty, 0
	skipping, resync := false, false
	prevFUP := false
	var out []tipRec
	for _, p := range pkts {
		// Async adjacency: a TIP directly following a non-context FUP.
		// PAD preserves the flag (the production scanners skip PAD
		// without touching their adjacency state); every other packet
		// clears it.
		async := prevFUP
		if p.Kind != PkPAD {
			prevFUP = p.Kind == PkFUP && !p.Ctx
		}
		switch p.Kind {
		case PkTNT:
			if skipping {
				continue
			}
			for k := 0; k < p.TNTCount; k++ {
				sig = sigAppend(sig, p.TNTBits&(1<<k) != 0)
				n++
			}
		case PkTIP:
			if skipping {
				continue
			}
			s := sig
			if n > tntRunCap {
				s = tntSigLongRun
			}
			out = append(out, tipRec{IP: p.IP, Sig: s, SigLen: n, Off: p.Off, Resync: resync, Async: async})
			sig, n = tntSigEmpty, 0
			resync = false
		case PkPSB:
			if skipping {
				skipping = false
				resync = true
			}
		case PkOVF:
			sig, n = tntSigEmpty, 0
			skipping = true
		}
	}
	return out
}

// recsFrom returns the records at or after stream offset lo (linear
// scan; the production path binary-searches).
func recsFrom(recs []tipRec, lo int) []tipRec {
	for i, r := range recs {
		if r.Off >= lo {
			return recs[i:]
		}
	}
	return nil
}

// syncOffsetsFrom lists the PSB offsets at or after lo.
func syncOffsetsFrom(pkts []Packet, lo int) []int {
	var pts []int
	for _, p := range pkts {
		if p.Kind == PkPSB && p.Off >= lo {
			pts = append(pts, p.Off)
		}
	}
	return pts
}

// ovfCount counts overflow packets.
func ovfCount(pkts []Packet) int {
	n := 0
	for _, p := range pkts {
		if p.Kind == PkOVF {
			n++
		}
	}
	return n
}

// lastOVFOff returns the offset of the last overflow packet, -1 if none.
func lastOVFOff(pkts []Packet) int {
	off := -1
	for _, p := range pkts {
		if p.Kind == PkOVF {
			off = p.Off
		}
	}
	return off
}

// syncedEnd reports whether a stream-dialect parse ends synchronized: a
// PSB was seen and no overflow follows the last one.
func syncedEnd(pkts []Packet) bool {
	lastPSB, lastOVF := -1, -1
	for i, p := range pkts {
		switch p.Kind {
		case PkPSB:
			lastPSB = i
		case PkOVF:
			lastOVF = i
		}
	}
	return lastPSB >= 0 && lastOVF < lastPSB
}

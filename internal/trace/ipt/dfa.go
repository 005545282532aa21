package ipt

import (
	"encoding/binary"
	"math/bits"
)

// Packet-length DFA (§5.3 fast path): the per-byte dispatch of the
// packet-grammar scanners is folded into a single 256-entry table mapping
// a header byte to its packet class and total encoded length. The
// scanners index the table once per packet instead of walking an if/else
// ladder per byte, which removes the data-dependent branches the
// hardware-speed scan cannot afford; only the rare 0x02 prefix escapes to
// a second dispatch on the extended opcode.
//
// Each entry packs, little end first:
//
//	bits 0..4   total packet length in bytes (header + payload)
//	bits 5..7   packet class (pc* constants)
//	bits 8..15  class-specific auxiliary value:
//	              pcTNT: the number of payload outcome bits
//	              pcTIP/pcTIPRec: the Kind discriminator of the family member
//
// The table is a pure function of the packet grammar in packets.go and is
// built once at init; both the batch scanner (decode.go) and the
// incremental WindowDecoder (stream.go) dispatch through it.

// Packet classes of the DFA. TIP proper gets a class of its own
// (pcTIPRec) distinct from the rest of its family: it is the only packet
// that emits a checked record, and record-bearing windows are TIP-dense,
// so the incremental scanner wants to reach the emit path on the class
// test alone without re-discriminating the Kind per packet.
const (
	pcBad    uint16 = iota << 5 // no packet starts with this byte
	pcPAD                       // 0x00 padding
	pcTNT                       // short TNT, outcome bits in the header byte
	pcTIP                       // TIP.PGE, TIP.PGD, FUP: last-IP update only
	pcExt                       // 0x02 extended-opcode escape
	pcTIPRec                    // TIP proper: updates last-IP and emits a record
)

const (
	pcLenMask   = 0x1f // bits 0..4: total packet length
	pcClassMask = 0xe0 // bits 5..7: packet class
)

// pktTab is the 256-entry header-byte DFA.
var pktTab [256]uint16

// TIP-family register dispatch: every odd header byte is TIP-family or
// invalid, and the family is the dense class of a record-bearing window,
// so the incremental scanner resolves it without touching pktTab — the
// advance of the scan position must not wait out a load-use latency per
// packet. Both constants are pure functions of the packet grammar;
// TestDFATableMatchesGrammar pins them against the table.
const (
	// tipOpSet has bit op set for each valid TIP-family low-5-bit opcode.
	tipOpSet uint32 = 1<<opTIP | 1<<opTIPPGE | 1<<opTIPPGD | 1<<opFUP
	// ipLenNibbles packs ipPayloadLen(ipb) for ipb 0..7, one nibble each:
	// payload length = ipLenNibbles >> (ipb*4) & 0xf.
	ipLenNibbles uint32 = 0x88888420
)

func init() {
	for b := 0; b < 256; b++ {
		pktTab[b] = classifyHeader(byte(b))
	}
}

// classifyHeader derives one DFA entry from the packet grammar; it must
// agree byte-for-byte with the dispatch rules the scanners used to
// implement inline (TestDFATableMatchesGrammar pins that).
func classifyHeader(b byte) uint16 {
	switch {
	case b == 0x00:
		return pcPAD | 1
	case b == 0x02:
		// Extended escape: real length depends on the second byte.
		return pcExt | 2
	case b&1 == 0:
		n := bits.Len8(b) - 2
		if n < 1 || n > maxTNTBits {
			return pcBad
		}
		return pcTNT | 1 | uint16(n)<<8
	default:
		class := pcTIP
		var kind Kind
		switch b & 0x1f {
		case opTIP:
			kind, class = KindTIP, pcTIPRec
		case opTIPPGE:
			kind = KindTIPPGE
		case opTIPPGD:
			kind = KindTIPPGD
		case opFUP:
			kind = KindFUP
		default:
			return pcBad
		}
		return class | uint16(1+ipPayloadLen(b>>5)) | uint16(kind)<<8
	}
}

// Word-at-a-time probes: the scanners load 8 stream bytes as one uint64
// and classify the whole word with branch-free bit tricks, so PAD gaps
// and TNT runs cost one probe per 8 bytes instead of one dispatch per
// byte.

const (
	wordLSBs = 0x0101010101010101 // bit 0 of every byte
	wordMSBs = 0x8080808080808080 // bit 7 of every byte
	wordTNT  = 0xfcfcfcfcfcfcfcfc // bits 2..7 of every byte
)

// leUint64 loads 8 little-endian stream bytes as one probe word.
//
//fg:hotpath
func leUint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// isTNTHeader reports whether b is a short-TNT header: even, with its
// stop bit in 2..7 (pktTab class pcTNT).
//
//fg:hotpath
func isTNTHeader(b byte) bool { return b&1 == 0 && b >= 4 }

// tntStop returns the stop mask of w: bit 7 of each byte that is not a
// short-TNT header is set. A short-TNT header is even and has a bit set
// in 2..7 (the stop bit of a 1..6-outcome payload); PAD, the 0x02 escape
// and every TIP-family header fail. Odd bytes are flagged directly,
// bytes with no bit in 2..7 through the subtract/borrow zero-byte probe.
// The borrow can flag bytes above the first zero byte spuriously, but
// never below it, so the lowest flag is exact.
//
//fg:hotpath
func tntStop(w uint64) uint64 {
	m := w & wordTNT
	return (m-wordLSBs)&^m&wordMSBs | (w&wordLSBs)<<7
}

// tntPrefixLen returns how many bytes (0..8) at the low end of w — the
// lowest stream offsets — are short-TNT headers: the trailing-zero count
// of the stop mask locates its lowest, exact flag.
//
//fg:hotpath
func tntPrefixLen(w uint64) int { return bits.TrailingZeros64(tntStop(w)) >> 3 }

// tntRunEnd returns the offset of the first byte at or after i in buf
// that is not a short-TNT header, without counting the outcomes it
// passes: the lane of a run already past TNTRunCap, where only the run's
// end matters. It probes two words per step and reads no byte past the
// last whole word of buf, so when fewer than 8 bytes remain it stops
// early and leaves them to the per-packet dispatch.
//
//fg:hotpath
func tntRunEnd(buf []byte, i int) int {
	for i+16 <= len(buf) {
		s0, s1 := tntStop(leUint64(buf[i:])), tntStop(leUint64(buf[i+8:]))
		if s0|s1 != 0 {
			if s0 != 0 {
				return i + bits.TrailingZeros64(s0)>>3
			}
			return i + 8 + bits.TrailingZeros64(s1)>>3
		}
		i += 16
	}
	if i+8 <= len(buf) {
		i += tntPrefixLen(leUint64(buf[i:]))
	}
	return i
}

// tntPrefixBits returns the number of TNT outcomes carried by the low n
// bytes of w, which must all be short-TNT headers: each byte carries
// bits.Len8(b)-2 outcomes below its stop bit. Smearing every byte's stop
// bit down to bit 0 (within the byte) leaves exactly bits.Len8(b) bits
// set per byte, so one population count over the prefix sums them.
//
//fg:hotpath
func tntPrefixBits(w uint64, n int) int {
	s := w | w>>1&0x7f7f7f7f7f7f7f7f
	s |= s >> 2 & 0x3f3f3f3f3f3f3f3f
	s |= s >> 4 & 0x0f0f0f0f0f0f0f0f
	return bits.OnesCount64(s&(1<<(8*uint(n))-1)) - 2*n
}

// tntFold folds the outcomes of short-TNT header b, oldest first, into
// the running signature sig.
//
//fg:hotpath
func tntFold(sig uint64, b byte) uint64 {
	n := int(pktTab[b] >> 8)
	for t := 1; t <= n; t++ {
		sig = TNTSigAppend(sig, b>>t&1 != 0)
	}
	return sig
}

package ipt

import (
	"math/bits"
	"math/rand"
	"testing"
)

// TestDFATableMatchesGrammar pins every pktTab entry against the packet
// grammar rules the scanners used to branch on inline: class, total
// length, and the class-specific auxiliary value must all agree for each
// of the 256 possible header bytes.
func TestDFATableMatchesGrammar(t *testing.T) {
	for hb := 0; hb < 256; hb++ {
		b := byte(hb)
		e := pktTab[b]
		class, length, aux := e&pcClassMask, int(e&pcLenMask), uint8(e>>8)
		switch {
		case b == 0x00:
			if class != pcPAD || length != 1 {
				t.Errorf("%#02x: got class %#x len %d, want PAD len 1", b, class, length)
			}
		case b == 0x02:
			if class != pcExt {
				t.Errorf("%#02x: got class %#x, want extended escape", b, class)
			}
		case b&1 == 0:
			n := bits.Len8(b) - 2
			if n >= 1 && n <= maxTNTBits {
				if class != pcTNT || length != 1 || int(aux) != n {
					t.Errorf("%#02x: got class %#x len %d aux %d, want TNT len 1 bits %d", b, class, length, aux, n)
				}
			} else if class != pcBad {
				t.Errorf("%#02x: got class %#x, want bad (invalid TNT)", b, class)
			}
		default:
			// TIP proper is the record-emitting family member and carries
			// its own class; the rest of the family shares pcTIP.
			wantClass := pcTIP
			var kind Kind
			valid := true
			switch b & 0x1f {
			case opTIP:
				kind, wantClass = KindTIP, pcTIPRec
			case opTIPPGE:
				kind = KindTIPPGE
			case opTIPPGD:
				kind = KindTIPPGD
			case opFUP:
				kind = KindFUP
			default:
				valid = false
			}
			if !valid {
				if class != pcBad {
					t.Errorf("%#02x: got class %#x, want bad (unknown TIP op)", b, class)
				}
				continue
			}
			wantLen := 1 + ipPayloadLen(b>>5)
			if class != wantClass || length != wantLen || Kind(aux) != kind {
				t.Errorf("%#02x: got class %#x len %d kind %v, want class %#x len %d kind %v",
					b, class, length, Kind(aux), wantClass, wantLen, kind)
			}
		}
	}
}

// TestTIPRegisterDispatch pins the register-dispatch constants the
// incremental scanner uses for the TIP family against the table: every
// odd header byte must agree on validity and total length, and the
// nibble-packed payload lengths must match ipPayloadLen for all ipb.
func TestTIPRegisterDispatch(t *testing.T) {
	for hb := 1; hb < 256; hb += 2 {
		b := byte(hb)
		e := pktTab[b]
		valid := tipOpSet>>(b&0x1f)&1 != 0
		if wantValid := e&pcClassMask != pcBad; valid != wantValid {
			t.Errorf("%#02x: bitmap valid = %v, table valid = %v", b, valid, wantValid)
		}
		if !valid {
			continue
		}
		plen := 1 + int(ipLenNibbles>>((b>>5)*4)&0xf)
		if want := int(e & pcLenMask); plen != want {
			t.Errorf("%#02x: nibble len = %d, table len = %d", b, plen, want)
		}
	}
	for ipb := uint8(0); ipb < 8; ipb++ {
		if got, want := int(ipLenNibbles>>(ipb*4)&0xf), ipPayloadLen(ipb); got != want {
			t.Errorf("ipb %d: nibble payload len = %d, want %d", ipb, got, want)
		}
	}
}

// tntPrefixRef is the per-byte grammar the word probes must agree with:
// the number of leading bytes of w the DFA classifies as short TNT, and
// the outcomes they carry (bits.Len8(b)-2 each).
func tntPrefixRef(w uint64) (n, outcomes int) {
	for ; n < 8; n++ {
		b := byte(w >> (8 * n))
		if pktTab[b]&pcClassMask != pcTNT {
			break
		}
		outcomes += bits.Len8(b) - 2
	}
	return n, outcomes
}

// checkTNTProbe compares tntPrefixLen against the per-byte grammar on w,
// and tntPrefixBits on every prefix of w's TNT prefix.
func checkTNTProbe(t *testing.T, w uint64) {
	t.Helper()
	n, _ := tntPrefixRef(w)
	if got := tntPrefixLen(w); got != n {
		t.Fatalf("tntPrefixLen(%#016x) = %d, want %d", w, got, n)
	}
	for k := 0; k <= n; k++ {
		_, want := tntPrefixRef(w & (1<<(8*uint(k)) - 1))
		if got := tntPrefixBits(w, k); got != want {
			t.Fatalf("tntPrefixBits(%#016x, %d) = %d, want %d", w, k, got, want)
		}
	}
}

// TestTNTWordProbe pins the TNT probes against the per-byte grammar:
// isTNTHeader on all 256 bytes, then the word probes on every header
// value at every byte position, inside words whose other bytes are
// short-TNT fillers of both extreme widths or — above the varied byte —
// zero, odd or random bytes (the borrow probe flags bytes above the
// first zero byte spuriously, so only its lowest flag may decide the
// prefix), plus random words biased towards TNT bytes.
func TestTNTWordProbe(t *testing.T) {
	for b := 0; b < 256; b++ {
		if got, want := isTNTHeader(byte(b)), pktTab[b]&pcClassMask == pcTNT; got != want {
			t.Fatalf("isTNTHeader(%#02x) = %v, want %v", b, got, want)
		}
	}
	fillers := []byte{0x04, 0x06, 0x7e, 0xfe, 0x80}
	above := []uint64{0, 0x0101010101010101, 0x0202020202020202, 0x0d0d0d0d0d0d0d0d}
	rng := rand.New(rand.NewSource(1))
	for pos := 0; pos < 8; pos++ {
		low := uint64(1)<<(8*uint(pos)) - 1
		for v := 0; v < 256; v++ {
			for _, f := range fillers {
				w := uint64(f) * wordLSBs
				w = w&^(0xff<<(8*uint(pos))) | uint64(v)<<(8*uint(pos))
				checkTNTProbe(t, w)
				for _, hi := range append(above, rng.Uint64()) {
					checkTNTProbe(t, w&(low|0xff<<(8*uint(pos)))|hi&^(low|0xff<<(8*uint(pos))))
				}
			}
		}
	}
	tntByte := func() byte {
		for {
			b := byte(rng.Intn(256))
			if pktTab[b]&pcClassMask == pcTNT {
				return b
			}
		}
	}
	for it := 0; it < 100000; it++ {
		var w uint64
		for k := 0; k < 8; k++ {
			b := byte(rng.Intn(256))
			if rng.Intn(8) != 0 {
				b = tntByte()
			}
			w |= uint64(b) << (8 * k)
		}
		checkTNTProbe(t, w)
	}
	// All-TNT words of mixed widths: the full-word count the long-run
	// lane adds per probe.
	words := [][8]byte{
		{0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06, 0x06},
		{0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe},
		{0x06, 0xfe, 0x0a, 0x72, 0x34, 0x06, 0xd8, 0x1c},
	}
	for _, bs := range words {
		var w uint64
		want := 0
		for k, b := range bs {
			w |= uint64(b) << (8 * k)
			want += bits.Len8(b) - 2
		}
		if got := tntPrefixLen(w); got != 8 {
			t.Fatalf("tntPrefixLen(% x) = %d, want 8", bs, got)
		}
		if got := tntPrefixBits(w, 8); got != want {
			t.Errorf("tntPrefixBits(% x, 8) = %d, want %d", bs, got, want)
		}
	}
}

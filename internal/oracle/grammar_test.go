package oracle

import (
	"bytes"
	"math/rand"
	"testing"
)

// genStream emits a random well-formed packet stream using an
// independent ad-hoc encoder (not Serialize, which is under test).
func genStream(r *rand.Rand, n int) []byte {
	var out []byte
	lastIP := uint64(0)
	psb := func() {
		for j := 0; j < psbRepeat; j++ {
			out = append(out, 0x02, extPSB)
		}
		lastIP = 0
	}
	psb()
	for i := 0; i < n; i++ {
		switch r.Intn(8) {
		case 0:
			out = append(out, 0x00)
		case 1:
			nb := 1 + r.Intn(maxTNTBits)
			bits := byte(r.Intn(1 << nb))
			out = append(out, byte(1)<<(nb+1)|bits<<1)
		case 2:
			psb()
		case 3:
			out = append(out, 0x02, extPSBEND)
		case 4:
			out = append(out, 0x02, extPIP)
			cr3 := r.Uint64()
			for j := 0; j < 8; j++ {
				out = append(out, byte(cr3>>(8*j)))
			}
		case 5:
			out = append(out, 0x02, extOVF)
		default:
			ops := []byte{hdrTIP, hdrTIPPGE, hdrTIPPGD, hdrFUP}
			op := ops[r.Intn(len(ops))]
			ipb := uint8(r.Intn(4))
			out = append(out, op|ipb<<5)
			target := r.Uint64()
			switch ipb {
			case 0:
				target = lastIP
			case 1:
				target = lastIP&^0xffff | target&0xffff
				out = append(out, byte(target), byte(target>>8))
			case 2:
				target = lastIP&^0xffffffff | target&0xffffffff
				for j := 0; j < 4; j++ {
					out = append(out, byte(target>>(8*j)))
				}
			default:
				for j := 0; j < 8; j++ {
					out = append(out, byte(target>>(8*j)))
				}
			}
			lastIP = target
		}
	}
	return out
}

// TestSerializeRoundTrip: parse → serialize must reproduce any fully
// parseable stream byte-identically.
func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		raw := genStream(r, 1+r.Intn(80))
		pkts, consumed, err := ParsePackets(raw)
		if err != nil {
			t.Fatalf("trial %d: parse error on well-formed stream: %v", trial, err)
		}
		if consumed != len(raw) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, consumed, len(raw))
		}
		if got := Serialize(pkts); !bytes.Equal(got, raw) {
			t.Fatalf("trial %d: round trip diverged:\n in  %x\n out %x", trial, raw, got)
		}
	}
}

// TestParseTruncation: every prefix of a well-formed stream parses
// without error (truncated tails stop cleanly in the batch dialect).
func TestParseTruncation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	raw := genStream(r, 60)
	for cut := 0; cut <= len(raw); cut++ {
		pkts, consumed, err := ParsePackets(raw[:cut])
		if err != nil {
			t.Fatalf("cut %d: batch parse errored on a truncated tail: %v", cut, err)
		}
		if consumed > cut {
			t.Fatalf("cut %d: consumed %d > %d", cut, consumed, cut)
		}
		// Whatever parsed must re-serialize to the consumed prefix.
		if got := Serialize(pkts); !bytes.Equal(got, raw[:consumed]) {
			t.Fatalf("cut %d: partial round trip diverged", cut)
		}
	}
}

// TestStreamDialectSkipsToPSB: bytes before the first PSB are skipped
// wholesale in the stream dialect, even if they are garbage.
func TestStreamDialectSkipsToPSB(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	tail := genStream(r, 20)
	raw := append([]byte{0xFF, 0x03, 0x02, 0x41, 0x99}, tail...)
	pkts, _, err := parse(nil, raw, 0, true)
	if err != nil {
		t.Fatalf("stream parse errored on pre-sync garbage: %v", err)
	}
	if len(pkts) == 0 || pkts[0].Kind != PkPSB {
		t.Fatalf("stream parse did not start at the PSB (first packet %v)", pkts[0].Kind)
	}
	if pkts[0].Off != 5 {
		t.Fatalf("first PSB at offset %d, want 5", pkts[0].Off)
	}
}

// TestStreamDialectMalformedPSBTail: a trailing partial PSB that cannot
// complete is malformed in the stream dialect but a clean stop in the
// batch dialect — matching the two production decoders' asymmetry.
func TestStreamDialectMalformedPSBTail(t *testing.T) {
	var raw []byte
	for j := 0; j < psbRepeat; j++ {
		raw = append(raw, 0x02, extPSB)
	}
	raw = append(raw, 0x02, extPSB, 0x02, 0x41) // partial PSB, provably broken

	if _, _, err := parse(nil, raw, 0, true); err == nil {
		t.Fatal("stream dialect accepted a provably broken partial PSB")
	}
	if _, _, err := parse(nil, raw, 0, false); err != nil {
		t.Fatalf("batch dialect rejected a truncated tail: %v", err)
	}

	// A viable partial PSB is a clean hold in both dialects.
	viable := raw[:len(raw)-2]
	if _, _, err := parse(nil, viable, 0, true); err != nil {
		t.Fatalf("stream dialect rejected a viable partial PSB: %v", err)
	}
}

// TestExtractRecordsOverflowSemantics: records between an overflow and
// the next PSB are suppressed; the first record after resync is flagged.
func TestExtractRecordsOverflowSemantics(t *testing.T) {
	mkTIP := func(ip uint64) Packet { return Packet{Kind: PkTIP, IPB: 3, IP: ip} }
	pkts := []Packet{
		{Kind: PkPSB},
		mkTIP(0x100),
		{Kind: PkTNT, TNTBits: 0b101, TNTCount: 3},
		mkTIP(0x200),
		{Kind: PkOVF},
		mkTIP(0x300), // suppressed
		{Kind: PkPSB},
		mkTIP(0x400), // resync-flagged
		mkTIP(0x500),
	}
	recs := extractRecords(pkts)
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	if recs[0].IP != 0x100 || recs[0].SigLen != 0 {
		t.Fatalf("record 0 = %+v", recs[0])
	}
	if recs[1].IP != 0x200 || recs[1].SigLen != 3 {
		t.Fatalf("record 1 = %+v", recs[1])
	}
	wantSig := sigAppend(sigAppend(sigAppend(tntSigEmpty, true), false), true)
	if recs[1].Sig != wantSig {
		t.Fatalf("record 1 sig %#x, want %#x", recs[1].Sig, wantSig)
	}
	if !recs[2].Resync || recs[2].IP != 0x400 {
		t.Fatalf("record 2 = %+v, want resync-flagged 0x400", recs[2])
	}
	if recs[3].Resync {
		t.Fatalf("record 3 still resync-flagged")
	}
}

// TestLongTNTRunCollapses: a run longer than the cap yields the wildcard
// signature.
func TestLongTNTRunCollapses(t *testing.T) {
	var pkts []Packet
	pkts = append(pkts, Packet{Kind: PkPSB})
	for i := 0; i < 4; i++ { // 4×5 = 20 bits > 16 cap
		pkts = append(pkts, Packet{Kind: PkTNT, TNTBits: 0b10101, TNTCount: 5})
	}
	pkts = append(pkts, Packet{Kind: PkTIP, IPB: 3, IP: 0x42})
	recs := extractRecords(pkts)
	if len(recs) != 1 || recs[0].Sig != tntSigLongRun || recs[0].SigLen != 20 {
		t.Fatalf("long run record = %+v", recs)
	}
}

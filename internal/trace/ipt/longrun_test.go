package ipt

import (
	"fmt"
	"reflect"
	"testing"
)

// Tests of the scanner's two TNT-run lanes: a run is counted exactly
// while it is within TNTRunCap and skipped uncounted past it, so the cap
// decision (exact signature at 16 outcomes, wildcard at 17) must come
// out the same whatever probe word, chunk or ToPA region boundary a run
// meets its end or its cap on.

// laneStream builds a trace stream together with the signature every TIP
// record must carry, folded independently of both decoders.
type laneStream struct {
	buf      []byte
	last, ip uint64
	run      []bool // outcomes since the previous TIP
	skipping bool   // between an OVF and the next PSB
	sigs     []uint64
}

func newLaneStream() *laneStream {
	s := &laneStream{ip: 0x400000}
	s.psb()
	return s
}

func (s *laneStream) psb() {
	s.buf = appendPSB(s.buf)
	s.last = 0
	s.skipping = false
}

func (s *laneStream) ovf() {
	s.buf = append(s.buf, 0x02, extOVF)
	s.run = s.run[:0]
	s.skipping = true
}

func (s *laneStream) pad(n int) {
	for ; n > 0; n-- {
		s.buf = append(s.buf, 0x00)
	}
}

func (s *laneStream) tip() {
	s.ip += 0x40
	s.buf = appendIPPacket(s.buf, opTIP, s.ip, &s.last)
	if s.skipping {
		return
	}
	sig := TNTSigLongRun
	if len(s.run) <= TNTRunCap {
		sig = TNTSigEmpty
		for _, taken := range s.run {
			sig = TNTSigAppend(sig, taken)
		}
	}
	s.sigs = append(s.sigs, sig)
	s.run = s.run[:0]
}

// tnt appends a run of the given total outcomes in bytes of per outcomes
// each (the last byte takes the remainder), with a varying bit pattern.
func (s *laneStream) tnt(t *testing.T, outcomes, per int) {
	t.Helper()
	for outcomes > 0 {
		n := min(per, outcomes)
		bits := uint8(len(s.buf)*37 + outcomes)
		var err error
		if s.buf, err = appendTNT(s.buf, bits, n); err != nil {
			t.Fatal(err)
		}
		if !s.skipping {
			for k := 0; k < n; k++ {
				s.run = append(s.run, bits>>k&1 == 1)
			}
		}
		outcomes -= n
	}
}

// endOn pads the stream so that a run of width bytes appended next ends
// exactly on a multiple of c.
func (s *laneStream) endOn(c, width int) {
	s.pad((c - (len(s.buf)+width)%c) % c)
}

// laneStreams returns the table: name and stream. chunk is the feed size
// the stream will be fed in, for the cases that align runs with it.
func laneStreams(t *testing.T, chunk int) map[string]*laneStream {
	t.Helper()
	out := map[string]*laneStream{}

	// Runs of exactly 15, 16 and 17 outcomes in several byte shapes.
	s := newLaneStream()
	s.tip()
	for _, per := range []int{1, 2, 3, 5, 6} {
		for _, n := range []int{15, 16, 17} {
			s.tnt(t, n, per)
			s.tip()
		}
	}
	out["cap-edges"] = s

	// Runs of every byte width up to five probe words, one-outcome and
	// six-outcome bytes: each lane meets its run's end at every offset
	// of a word, including exactly on the word boundary, and the
	// two-word skip meets it in either word.
	s = newLaneStream()
	s.tip()
	for _, per := range []int{1, 6} {
		for w := 1; w <= 40; w++ {
			s.tnt(t, w*per, per)
			s.tip()
		}
	}
	out["word-ends"] = s

	// Runs whose end, or whose passing of the cap, lands exactly on a
	// chunk boundary of this feed.
	s = newLaneStream()
	s.tip()
	for _, w := range []int{15, 16, 17, 24, 40} {
		s.endOn(chunk, w)
		s.tnt(t, w, 1)
		s.tip()
		s.endOn(chunk, 17)
		s.tnt(t, 40, 1) // passes the cap at the chunk boundary
		s.tip()
	}
	out["chunk-ends"] = s

	// A run is one run across PAD and PSB: it passes the cap only after
	// the gap, or stays exactly at it.
	s = newLaneStream()
	s.tip()
	s.tnt(t, 10, 2)
	s.pad(9)
	s.tnt(t, 10, 1)
	s.tip()
	s.tnt(t, 8, 1)
	s.psb()
	s.tnt(t, 8, 1)
	s.tip()
	s.tnt(t, 9, 3)
	s.psb()
	s.tnt(t, 30, 1)
	s.tip()
	out["across-gaps"] = s

	// Long runs after an OVF are discarded until the next PSB; the run
	// cut by the OVF does not reach the first record after it.
	s = newLaneStream()
	s.tip()
	s.tnt(t, 12, 1)
	s.ovf()
	s.tnt(t, 240, 6)
	s.tip() // no record: still resynchronizing
	s.tnt(t, 40, 1)
	s.psb()
	s.tnt(t, 5, 1)
	s.tip()
	s.tnt(t, 20, 1)
	s.ovf()
	s.tnt(t, 20, 1)
	s.psb()
	s.tnt(t, 120, 6)
	s.tip()
	s.tnt(t, 3, 3)
	s.tip()
	out["after-ovf"] = s
	return out
}

// TestTNTLanesMatchBatch feeds every table stream in every chunk size
// from 1 to 64 bytes, straight and out of a ToPA whose odd-sized regions
// put a seam inside most chunks, and compares every field of every record
// with DecodeFast+ExtractTIPs, whose signatures are in turn checked
// against the independently folded ones.
func TestTNTLanesMatchBatch(t *testing.T) {
	for chunk := 1; chunk <= 64; chunk++ {
		for name, s := range laneStreams(t, chunk) {
			t.Run(fmt.Sprintf("%s/chunk%d", name, chunk), func(t *testing.T) {
				evs, err := DecodeFast(s.buf)
				if err != nil {
					t.Fatal(err)
				}
				want := ExtractTIPs(evs)
				if len(want) != len(s.sigs) {
					t.Fatalf("batch decode: %d records, want %d", len(want), len(s.sigs))
				}
				for i, r := range want {
					if r.TNTSig != s.sigs[i] {
						t.Fatalf("batch decode: record %d sig %#x, want %#x", i, r.TNTSig, s.sigs[i])
					}
				}

				direct := NewWindowDecoder(0)
				for off := 0; off < len(s.buf); off += chunk {
					if err := direct.Feed(s.buf[off:min(off+chunk, len(s.buf))]); err != nil {
						t.Fatal(err)
					}
				}
				topa := NewToPA(29, 61)
				seamed := NewWindowDecoder(0)
				for off := 0; off < len(s.buf); off += chunk {
					from := topa.TotalWritten()
					topa.Write(s.buf[off:min(off+chunk, len(s.buf))])
					if ok, err := topa.FeedRange(seamed, from, topa.TotalWritten()); !ok || err != nil {
						t.Fatalf("FeedRange at %d = %v, %v", off, ok, err)
					}
				}
				for _, d := range []struct {
					how string
					dec *WindowDecoder
				}{{"fed", direct}, {"fed from the ToPA", seamed}} {
					if got := d.dec.Tips(); !reflect.DeepEqual(got, want) {
						for i := range min(len(got), len(want)) {
							if got[i] != want[i] {
								t.Fatalf("%s: record %d = %+v, want %+v", d.how, i, got[i], want[i])
							}
						}
						t.Fatalf("%s: %d records, want %d", d.how, len(got), len(want))
					}
					if d.dec.Consumed() != len(s.buf) {
						t.Fatalf("%s: consumed %d of %d bytes", d.how, d.dec.Consumed(), len(s.buf))
					}
				}
			})
		}
	}
}

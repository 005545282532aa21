package main

import (
	"encoding/binary"
	"math/bits"
	"time"
)

// The fleet workload's host-speed control: a shadow fleet. A fleet check
// is mostly the window decoder's scan, which skips TNT runs eight bytes at
// a time: throughput-bound code. On the shared host its time swung by up
// to 1.8x for seconds at a time while the general probe (calibrate, a
// chain of dependent loads) and a byte-at-a-time decoding probe moved by a
// tenth or less, sometimes the other way.
//
// Each fleet process therefore has a shadow: a private buffer the size of
// one trace chunk and a cursor into the same recorded trace. After every
// check the shadow of the same process replays its own next chunk through
// a decoder of the benchmark's own with the window decoder's shape (no
// FlowGuard code, so no change under test can speed it up) and looks every
// consecutive pair of TIP targets up in an open-addressing edge table
// built from the traces. Shadows and checks interleave one to one, so they
// share the host's speed, the cache and the Zipf-skewed reuse of process
// state. Each check's time is scaled by fleetShadowRef over the median
// shadow step of its block. In a slow phase that put the checks' p50 at
// 11.3 us against about 7 us, the median shadow step was 5.6 us against
// 3.25 us, and the scaled p50 came out at 6.8 us.
//
// The tail does not slow with the body: the slowest checks and shadow
// steps are those of rarely picked processes, cold in the cache and bound
// by its latency rather than by throughput. In a run whose checks' p50 was
// 11.4 us against 7.6 to 8.6 us in the runs around it, their p99 was
// 20.1 us against 18.4 to 20.3 us, and the shadow steps' p50 was 5.4 us
// against 3.4 to 3.7 us but their p99 7.7 us against 7.2 to 7.8 us. So
// the blocked p99 is scaled by the shadow steps' p99 over the run, to
// fleetShadowRef99.

// fleetShadowRef and fleetShadowRef99 are the median and the p99 shadow
// step on the 2-CPU host the benchmark was defined on; fleet times are
// reported at the speed at which shadow steps take this long.
const (
	fleetShadowRef   = 3_250 // ns
	fleetShadowRef99 = 7_500 // ns
)

// The shadow decoder dispatches the TIP family (odd header bytes: opcode
// in the low five bits, IP byte selector in the top three) in registers:
// probeTIPOps has a bit per valid opcode, probeIPLen a nibble per
// selector holding the IP payload length.
const (
	probeOpTIP  = 0x0d
	probeTIPOps = 1<<0x0d | 1<<0x11 | 1<<0x01 | 1<<0x1d // TIP, TIP.PGE, TIP.PGD, FUP
	probeIPLen  = 0x88888420
)

// probeExtLen returns the length of the extended packet whose opcode is
// op, and whether it is a PSB (which resets the last IP); 0 is no packet.
func probeExtLen(op byte) (int, bool) {
	switch op {
	case 0x82:
		return 16, true
	case 0x23, 0xf3: // PSBEND, OVF
		return 2, false
	case 0x43: // PIP
		return 10, false
	case 0x99: // MODE
		return 3, false
	}
	return 0, false
}

// probeDecode appends the TIP targets of buf, which starts at a packet
// boundary, to out, each folded with the TNT outcome count before it, and
// reconstructs IPs from last. It returns the offset of the first packet
// buf does not hold whole (len(buf) when it met a byte outside the
// grammar) and the last IP. Like a window decoder built for throughput,
// it skips PAD and TNT runs eight bytes at a time.
func probeDecode(buf []byte, last uint64, out []uint64) ([]uint64, int, uint64) {
	var outcomes uint64
	n := len(buf)
	i := 0
	for i < n {
		b := buf[i]
		if b&1 != 0 {
			op := b & 0x1f
			if probeTIPOps>>op&1 == 0 {
				return out, n, last
			}
			ipb := b >> 5
			plen := 1 + int(probeIPLen>>(ipb*4)&0xf)
			if i+plen > n {
				return out, i, last
			}
			switch plen {
			case 3:
				last = last&^0xffff | uint64(binary.LittleEndian.Uint16(buf[i+1:]))
			case 5:
				last = last&^0xffffffff | uint64(binary.LittleEndian.Uint32(buf[i+1:]))
			case 9:
				last = binary.LittleEndian.Uint64(buf[i+1:])
			}
			if op == probeOpTIP {
				out = append(out, last^outcomes<<48)
				outcomes = 0
			}
			i += plen
			continue
		}
		switch b {
		case 0x00: // PAD
			i++
			for i+8 <= n && binary.LittleEndian.Uint64(buf[i:]) == 0 {
				i += 8
			}
		case 0x02:
			if i+1 >= n {
				return out, i, last
			}
			plen, psb := probeExtLen(buf[i+1])
			if plen == 0 {
				return out, n, last
			}
			if i+plen > n {
				return out, i, last
			}
			if psb {
				last = 0
			}
			i += plen
		default: // TNT: outcomes below a stop bit above bit 1
			outcomes += uint64(bits.Len8(b) - 2)
			i++
			for i+8 <= n {
				w := binary.LittleEndian.Uint64(buf[i:])
				if !probeTNTWord(w) {
					break
				}
				for k := 0; k < 8; k++ {
					outcomes += uint64(bits.Len8(byte(w>>(8*k))) - 2)
				}
				i += 8
			}
		}
	}
	return out, i, last
}

// probeTNTWord reports whether all 8 bytes of w are TNT headers: even,
// with a bit set above bit 1.
func probeTNTWord(w uint64) bool {
	const lsbs, msbs, high = 0x0101010101010101, 0x8080808080808080, 0xfcfcfcfcfcfcfcfc
	if w&lsbs != 0 {
		return false
	}
	m := w & high
	return (m-lsbs)&^m&msbs == 0
}

// edgeTable is an open-addressing set of edge hashes; 0 marks a free slot.
type edgeTable []uint64

// newEdgeTable holds every consecutive TIP pair of the traces.
func newEdgeTable(raws [][]byte) edgeTable {
	var edges []uint64
	for _, raw := range raws {
		tips, _, _ := probeDecode(raw, 0, nil)
		for i := 0; i+1 < len(tips); i++ {
			edges = append(edges, probeEdge(tips[i], tips[i+1]))
		}
	}
	size := 1024
	for size < 4*len(edges) {
		size *= 2
	}
	t := make(edgeTable, size)
	for _, e := range edges {
		t.insert(e)
	}
	return t
}

func probeEdge(src, dst uint64) uint64 {
	h := (src*0x9e3779b97f4a7c15 ^ dst) * 0xbf58476d1ce4e5b9
	return h ^ h>>31 | 1
}

func (t edgeTable) insert(e uint64) {
	mask := uint64(len(t) - 1)
	for i := e & mask; ; i = (i + 1) & mask {
		switch t[i] {
		case e:
			return
		case 0:
			t[i] = e
			return
		}
	}
}

func (t edgeTable) has(e uint64) bool {
	mask := uint64(len(t) - 1)
	for i := e & mask; ; i = (i + 1) & mask {
		switch t[i] {
		case e:
			return true
		case 0:
			return false
		}
	}
}

// shadowProc is one fleet process's shadow: its trace, its replay
// position, the bytes of a packet cut by the previous chunk, and the
// decoder's last IP.
type shadowProc struct {
	raw  []byte
	cur  int
	buf  []byte
	pend int
	last uint64
}

// maxPacket bounds a packet's length, and so the bytes a chunk can leave
// pending.
const maxPacket = 16

func newShadowProc(raw []byte, cur int) *shadowProc {
	return &shadowProc{raw: raw, cur: cur, buf: make([]byte, 0, fleetChunk+maxPacket)}
}

// shadowRun is the state the shadow steps share.
type shadowRun struct {
	edges edgeTable
	tips  []uint64
	hits  uint64
}

// step replays s's next chunk as the fleet's step does and returns its
// time in nanoseconds.
func (r *shadowRun) step(s *shadowProc) uint64 {
	t0 := time.Now()
	if s.cur >= len(s.raw) {
		s.cur, s.pend, s.last = 0, 0, 0
	}
	end := min(s.cur+fleetChunk, len(s.raw))
	b := append(s.buf[:s.pend], s.raw[s.cur:end]...)
	s.cur = end
	var n int
	r.tips, n, s.last = probeDecode(b, s.last, r.tips[:0])
	s.pend = copy(b, b[n:])
	for i := 0; i+1 < len(r.tips); i++ {
		if r.edges.has(probeEdge(r.tips[i], r.tips[i+1])) {
			r.hits++
		}
	}
	return uint64(time.Since(t0))
}

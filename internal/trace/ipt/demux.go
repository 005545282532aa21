package ipt

// Demux splits shared per-core trace streams back into per-process
// streams keyed by CR3, the software analogue of what the paper's kernel
// module does when several traced processes share a core's trace unit
// (§5.1/§6): the scheduler emits a bare PIP (plus a MODE.Exec packet) at
// every context switch-in, and the demux uses those markers to route the
// PIP-bounded spans between them to the per-process sink bound to that
// CR3.
//
// The output contract is byte identity: the stream a sink receives is
// exactly the stream a dedicated CR3-filtered tracer would have produced
// for that process alone. The switch markers themselves (bare PIP + MODE)
// are attribution metadata, not process trace, and are stripped; PIPs
// inside a PSB+ region are part of the synchronization context a solo
// tracer also emits and are forwarded unchanged.
//
// The PSB+ PIP doubles as an attribution check. A context-switch marker
// lost to stream corruption silently misattributes every byte up to the
// next PSB; when the PSB+ PIP then disagrees with the current attribution,
// the demux classifies the discrepancy as an unmarked loss, reports BOTH
// processes to OnLoss (the one that was wrongly credited the span and the
// one whose span went missing), and rebinds to the PSB's CR3 — the PSB+
// context is self-contained, so the re-attributed stream is decodable
// from that point.
//
// Grammar damage in a span is contained the same way a real decoder
// contains it: the span's process is reported to OnLoss, bytes are
// dropped up to the next PSB (a packet-aligned cut, so the sink stream
// stays parseable), and scanning resumes there.
//
// The demux is not internally locked: the kernel module pumps all cores
// under its own lock, in deterministic core order.
type Demux struct {
	sinks map[uint64]*ToPA
	cores []coreState

	// OnLoss, when set, is called with the CR3 of every process whose
	// trace bytes were lost or misattributed (grammar damage inside its
	// span, or an unmarked context switch detected at a PSB). A process
	// may be reported more than once.
	OnLoss func(cr3 uint64)

	// Resyncs counts drops to the next PSB forced by grammar damage.
	Resyncs int
	// UnmarkedLosses counts PSB+ PIP attribution mismatches (a lost or
	// corrupted context-switch marker upstream).
	UnmarkedLosses int
	// ForwardedBytes, StrippedBytes and DroppedBytes partition the input:
	// bytes routed to sinks, switch-marker bytes consumed by the demux
	// itself, and bytes discarded (unknown attribution, no sink bound, or
	// damage resynchronization).
	ForwardedBytes uint64
	StrippedBytes  uint64
	DroppedBytes   uint64
}

// coreState is the per-core incremental scan state.
type coreState struct {
	carry    []byte // packet truncated at the end of the previous feed
	curCR3   uint64
	bound    bool // curCR3 holds a valid attribution
	inPSB    bool // between PSB and PSBEND
	skipping bool // dropping to the next PSB after grammar damage
}

// NewDemux returns a demux for the given number of per-core streams.
func NewDemux(cores int) *Demux {
	return &Demux{
		sinks: make(map[uint64]*ToPA),
		cores: make([]coreState, cores),
	}
}

// Bind routes spans attributed to cr3 into sink, replacing any previous
// binding (the kernel module rebinds a process's CR3 to the running
// thread's sink at each switch-in when threads share an address space).
// Spans for CR3 values with no binding are dropped and counted.
func (x *Demux) Bind(cr3 uint64, sink *ToPA) { x.sinks[cr3] = sink }

// Feed consumes one appended chunk of core's shared stream. Chunks may be
// cut anywhere — a packet truncated at the chunk end is carried over and
// completed by the next Feed, exactly as WindowDecoder does.
//
//fg:hotpath demux runs on every multicore pump
func (x *Demux) Feed(core int, chunk []byte) {
	cs := &x.cores[core]
	buf := chunk
	if len(cs.carry) > 0 {
		cs.carry = append(cs.carry, chunk...)
		buf = cs.carry
	}
	n := x.scan(cs, buf)
	rest := buf[n:]
	if len(cs.carry) > 0 {
		m := copy(cs.carry, rest)
		cs.carry = cs.carry[:m]
	} else if len(rest) > 0 {
		cs.carry = append(cs.carry[:0], rest...)
	}
}

// spanScan is the per-call state of one scan pass: the pending output
// span and its sink. It lives on scan's stack (methods, not closures, so
// the hot path neither allocates nor defeats inlining).
type spanScan struct {
	x         *Demux
	cs        *coreState
	buf       []byte
	spanStart int
	spanSink  *ToPA
}

// flush forwards the pending span [spanStart, end) to its sink.
func (s *spanScan) flush(end int) {
	if s.spanStart >= 0 {
		if end > s.spanStart {
			s.spanSink.Write(s.buf[s.spanStart:end])
			s.x.ForwardedBytes += uint64(end - s.spanStart)
		}
		s.spanStart = -1
	}
}

// keep marks the packet at start as part of the current span if the
// attribution has a sink, otherwise counts the bytes as dropped.
func (s *spanScan) keep(start, plen int) {
	if s.spanStart < 0 {
		if !s.cs.bound {
			s.x.DroppedBytes += uint64(plen)
			return
		}
		sink := s.x.sinks[s.cs.curCR3]
		if sink == nil {
			s.x.DroppedBytes += uint64(plen)
			return
		}
		s.spanStart, s.spanSink = start, sink
	}
}

// damage flushes, reports the current attribution, and enters
// drop-to-next-PSB resynchronization. Attribution is invalidated: the
// next PSB's PIP re-establishes it.
func (s *spanScan) damage(at int) {
	s.flush(at)
	if s.cs.bound && s.x.OnLoss != nil {
		s.x.OnLoss(s.cs.curCR3)
	}
	s.cs.bound = false
	s.cs.inPSB = false
	s.cs.skipping = true
	s.x.Resyncs++
}

// scan consumes complete packets from buf and returns how many bytes it
// consumed. Kept packets are forwarded to the current attribution's sink
// in contiguous spans — one sink write per span, not per packet.
//
//fg:hotpath
func (x *Demux) scan(cs *coreState, buf []byte) int {
	n := len(buf)
	i := 0
	ss := spanScan{x: x, cs: cs, buf: buf, spanStart: -1}

	for i < n {
		if cs.skipping {
			p := Sync(buf, i)
			if p < 0 {
				// Keep a partial-PSB-sized tail unconsumed in case the
				// PSB completes in the next chunk.
				keepTail := n - (PSBSize - 1)
				if keepTail < i {
					keepTail = i
				}
				x.DroppedBytes += uint64(keepTail - i)
				return keepTail
			}
			x.DroppedBytes += uint64(p - i)
			cs.skipping = false
			i = p
			continue
		}
		b := buf[i]
		e := pktTab[b]
		c := e & pcClassMask
		if c == pcExt {
			if i+1 >= n {
				ss.flush(i)
				return i // truncated tail
			}
			switch buf[i+1] {
			case extPSB:
				if i+PSBSize > n {
					ss.flush(i)
					if isPSBPrefix(buf[i:]) {
						return i // PSB split across chunks
					}
					ss.damage(i)
					continue
				}
				if !isPSBAt(buf, i) {
					ss.damage(i)
					continue
				}
				// Peek at the PIP that emitPSB writes directly after the
				// PSB: it names the CR3 this synchronization context
				// belongs to, which both re-establishes attribution after
				// damage and cross-checks it against the markers.
				if i+PSBSize+1 >= n || (buf[i+PSBSize] == 0x02 && buf[i+PSBSize+1] == extPIP && i+PSBSize+10 > n) {
					ss.flush(i)
					return i // carry until the peek is decidable
				}
				if buf[i+PSBSize] == 0x02 && buf[i+PSBSize+1] == extPIP {
					cr3 := leUint64(buf[i+PSBSize+2 : i+PSBSize+10])
					if !cs.bound {
						cs.bound = true
						cs.curCR3 = cr3
					} else if cr3 != cs.curCR3 {
						// Unmarked loss: a context-switch marker went
						// missing upstream. Both processes are suspect.
						ss.flush(i)
						x.UnmarkedLosses++
						if x.OnLoss != nil {
							x.OnLoss(cs.curCR3)
							x.OnLoss(cr3)
						}
						cs.curCR3 = cr3
					}
					ss.keep(i, PSBSize+10)
					cs.inPSB = true
					i += PSBSize + 10
					continue
				}
				// PSB without a trailing PIP (corrupt or foreign stream):
				// forward under the existing attribution if any.
				ss.keep(i, PSBSize)
				cs.inPSB = true
				i += PSBSize
			case extPSBEND:
				ss.keep(i, 2)
				cs.inPSB = false
				i += 2
			case extPIP:
				if i+10 > n {
					ss.flush(i)
					return i
				}
				if cs.inPSB {
					// Synchronization context, part of the process's own
					// stream (handled above when directly after the PSB,
					// here if padding intervened).
					ss.keep(i, 10)
					i += 10
					continue
				}
				// Bare PIP: the scheduler's context-switch marker.
				// Attribution switches here; the marker itself is demux
				// metadata, never process trace.
				ss.flush(i)
				cs.curCR3 = leUint64(buf[i+2 : i+10])
				cs.bound = true
				x.StrippedBytes += 10
				i += 10
			case extMODE:
				if i+modePacketLen > n {
					ss.flush(i)
					return i
				}
				// MODE accompanies the switch marker; solo streams never
				// contain one, so it is always stripped.
				ss.flush(i)
				x.StrippedBytes += modePacketLen
				i += modePacketLen
			case extOVF:
				ss.keep(i, 2)
				i += 2
			default:
				ss.damage(i)
				continue
			}
			continue
		}
		if c == pcBad {
			ss.damage(i)
			continue
		}
		// TNT, TIP family, PAD: fixed lengths from the DFA table.
		plen := int(e & pcLenMask)
		if c == pcTIP || c == pcTIPRec {
			plen = 1 + int(ipLenNibbles>>((b>>5)*4)&0xf)
		}
		if i+plen > n {
			ss.flush(i)
			return i // truncated tail
		}
		ss.keep(i, plen)
		i += plen
	}
	ss.flush(n)
	return n
}

package ipt

// WindowDecoder is the incremental form of the fast path's packet-grammar
// scan (§5.3): it consumes an append-only trace stream chunk by chunk and
// maintains the decoded TIP-record tail plus the PSB sync-point offsets,
// so a checker that runs repeatedly over a growing buffer decodes each
// byte exactly once instead of re-scanning the whole suffix per check
// (the §6 "move checking off the critical path" shape).
//
// Record and sync-point offsets are absolute stream offsets: they keep
// their meaning across DropBefore, so callers can address the stream
// itself (the ToPA, through FeedRange and AppendSince) with them. All
// storage is reused across feeds; a steady-state Feed performs no
// allocations once the internal slices have grown to the working size,
// and DropBefore is amortized O(1) per record: it advances a head index
// and compacts only when the dropped prefix outgrows the live records.
//
// Like DecodeFast, the decoder never consults program binaries. Unlike
// DecodeFast it accumulates TNT-run signatures linearly across the whole
// stream rather than per decoded suffix; the two agree on every record
// except the signature of the first TIP at or after a sync point, which
// no checker consults (edge checks read the signature of the *second*
// record of each pair).
type WindowDecoder struct {
	lastIP uint64
	sig    uint64
	sigN   int
	synced bool // a PSB has been seen; bytes before the first PSB are skipped
	off    int  // absolute stream offset of the next undecoded byte

	// skipping is set between an OVF packet and the next PSB: trace
	// bytes were lost, so IP compression and TNT attribution are
	// unreliable until a sync point resets decoder state. Packets in the
	// interval are grammar-checked but produce no records.
	skipping bool
	// resync marks that the next emitted TIP record follows an
	// OVF-forced resynchronization (TIPRecord.Resync).
	resync bool
	// inPSB is set between a PSB and its PSBEND: the FUP in that region
	// is synchronization context, not an asynchronous event.
	inPSB bool
	// prevFUP is set when the previous packet was a non-context FUP: a
	// TIP directly following one is the kernel's asynchronous-transfer
	// shape (signal delivery, sigreturn) and its record is flagged
	// TIPRecord.Async. PAD packets do not clear it (the batch decoder
	// emits no events for them, and the record extractors must agree).
	prevFUP bool
	// ovf counts OVF packets seen since Reset (monotonic across
	// DropBefore); the guard uses the delta between checks to classify
	// trace health.
	ovf int
	// lastOVF is the absolute offset of the most recent OVF packet, or
	// -1 if none has been seen since Reset.
	lastOVF int

	// carry holds a packet truncated at the end of the previous chunk.
	carry []byte

	// tips[tipHead:] and pts[ptHead:] are the live records and sync
	// points; the prefixes before the heads were dropped by DropBefore
	// and await compaction.
	tips    []TIPRecord
	pts     []int
	tipHead int
	ptHead  int
}

// NewWindowDecoder returns a decoder positioned at stream offset base.
func NewWindowDecoder(base int) *WindowDecoder {
	d := &WindowDecoder{}
	d.Reset(base)
	return d
}

// Reset discards all decoder state and repositions the stream origin at
// absolute offset base (retaining allocated storage).
func (d *WindowDecoder) Reset(base int) {
	d.lastIP = 0
	d.sig = TNTSigEmpty
	d.sigN = 0
	d.synced = false
	d.skipping = false
	d.resync = false
	d.inPSB = false
	d.prevFUP = false
	d.ovf = 0
	d.lastOVF = -1
	d.off = base
	d.carry = d.carry[:0]
	d.tips = d.tips[:0]
	d.pts = d.pts[:0]
	d.tipHead = 0
	d.ptHead = 0
}

// Tips returns the decoded TIP records, oldest first. The slice is owned
// by the decoder and valid until the next Feed/DropBefore/Reset.
func (d *WindowDecoder) Tips() []TIPRecord { return d.tips[d.tipHead:] }

// SyncPoints returns the absolute offsets of the PSBs seen so far, under
// the same ownership rules as Tips.
func (d *WindowDecoder) SyncPoints() []int { return d.pts[d.ptHead:] }

// Consumed returns the absolute stream offset of the next undecoded byte
// (bytes held back in the truncation carry are not consumed).
func (d *WindowDecoder) Consumed() int { return d.off - len(d.carry) }

// OVFTotal returns the number of OVF packets decoded since Reset. It is
// monotonic and survives DropBefore, so a caller can diff two
// observations to detect overflow between checks.
func (d *WindowDecoder) OVFTotal() int { return d.ovf }

// LastOVFOff returns the absolute stream offset of the most recent OVF
// packet, or -1 if none has been decoded since Reset. Records at or
// after this offset postdate the loss; records before it may be the
// last survivors of a severed history.
func (d *WindowDecoder) LastOVFOff() int { return d.lastOVF }

// Synced reports whether the decode position is trustworthy: a PSB has
// been seen and no overflow is pending resynchronization. While false,
// the tail of the stream cannot vouch for the control flow it encodes.
func (d *WindowDecoder) Synced() bool { return d.synced && !d.skipping }

// DropBefore discards TIP records and sync points with offsets below lo.
// Decoding state is unaffected: the stream remains continuous, only
// history is forgotten. The cut is a binary search; the dropped records
// stay in storage behind a head index until they outnumber the live
// ones, and only then are the live ones moved to the front, so the
// backing storage holds at most twice the live records plus what the
// feeds since the last DropBefore decoded, and each record is moved at
// most once per doubling.
//
//fg:hotpath
func (d *WindowDecoder) DropBefore(lo int) {
	d.tipHead = len(d.tips) - len(TipsFrom(d.tips[d.tipHead:], lo))
	if live := len(d.tips) - d.tipHead; d.tipHead > live {
		copy(d.tips, d.tips[d.tipHead:])
		d.tips, d.tipHead = d.tips[:live], 0
	}
	h := d.ptHead
	for h < len(d.pts) && d.pts[h] < lo {
		h++
	}
	d.ptHead = h
	if live := len(d.pts) - h; h > live {
		copy(d.pts, d.pts[h:])
		d.pts, d.ptHead = d.pts[:live], 0
	}
}

// Feed decodes one appended chunk. Chunks normally end at packet
// boundaries (the tracer writes whole packet groups); a packet truncated
// at the chunk end is carried over and completed by the next Feed. A
// malformed packet is returned as an error, as DecodeFast would.
//
//fg:hotpath incremental decode runs on every check
func (d *WindowDecoder) Feed(chunk []byte) error {
	if k := len(d.carry); k > 0 && len(chunk) > PSBSize {
		// Finish the carried packet from the head of chunk and scan the
		// rest of chunk in place rather than copying it behind the carry,
		// which would grow the carry's storage to the largest chunk ever
		// fed after a split packet (a whole ToPA region when FeedRange
		// crosses a region seam). A carry is a partial packet (or, before
		// the first PSB, a partial-PSB-sized tail) and no packet is longer
		// than a PSB, so PSBSize more bytes always let the scan get past
		// the carry.
		base := d.off - k
		d.carry = append(d.carry, chunk[:PSBSize]...)
		n, err := d.scan(d.carry, base)
		if err != nil {
			return err
		}
		if n >= k {
			d.carry = d.carry[:0]
			d.off = base + n
			chunk = chunk[n-k:]
		} else {
			// Defensive: the scan stopped inside the carry. Keep its
			// unconsumed part and carry the whole chunk behind it.
			m := copy(d.carry, d.carry[n:k])
			d.carry = d.carry[:m]
		}
	}
	buf := chunk
	if len(d.carry) > 0 {
		d.carry = append(d.carry, chunk...)
		buf = d.carry
	}
	base := d.off - len(buf) + len(chunk) // absolute offset of buf[0]
	n, err := d.scan(buf, base)
	if err != nil {
		return err
	}
	rest := buf[n:]
	if len(d.carry) > 0 {
		m := copy(d.carry, rest)
		d.carry = d.carry[:m]
	} else if len(rest) > 0 {
		d.carry = append(d.carry[:0], rest...)
	}
	d.off = base + len(buf)
	return nil
}

// scan consumes complete packets from buf (whose first byte sits at
// absolute offset base) and returns how many bytes it consumed.
//
// This is the throughput-critical loop of the fast path: the TIP family
// (every odd header byte, the dense class of a record-bearing window) is
// dispatched entirely in registers, the even classes in one pktTab load
// per packet (no per-byte branch ladder), PAD gaps are skipped and TNT
// runs counted word-at-a-time with uint64 probes (a run's outcomes are
// folded into its signature only while it stays under TNTRunCap), and
// the last-IP / TNT-run state lives in locals across the whole window —
// the decoder fields are read once on entry and stored once per exit
// instead of per packet.
//
//fg:hotpath
func (d *WindowDecoder) scan(buf []byte, base int) (int, error) {
	i := 0
	// Before the first PSB the stream may start mid-packet (a wrapped
	// ToPA): skip to the first sync point, keeping a partial-PSB-sized
	// tail unconsumed in case the PSB completes in the next chunk. No
	// decoder state has been touched yet, so these exits need no stash.
	if !d.synced {
		p := Sync(buf, 0)
		if p < 0 {
			keep := len(buf) - (PSBSize - 1)
			if keep < 0 {
				keep = 0
			}
			return keep, nil
		}
		i = p
	}
	// Hoist the per-packet state into registers for the window; the
	// record slice rides along so the append fast path works on a local
	// header instead of reloading d.tips through the pointer per record.
	lastIP, sig, sigN, skipping := d.lastIP, d.sig, d.sigN, d.skipping
	resync, tips := d.resync, d.tips
	inPSB, prevFUP := d.inPSB, d.prevFUP
	n := len(buf)
	for i < n {
		b := buf[i]
		// The TIP family — every odd header byte — is the dense class of a
		// record-bearing window, so it is dispatched first and entirely in
		// registers: opcode validity is one bitmap probe and the packet
		// length one nibble shift, so advancing i never waits out the
		// load-use latency of a pktTab entry. The even classes are rarer
		// and go through the table.
		if b&1 != 0 {
			op := b & 0x1f
			if tipOpSet>>op&1 == 0 {
				d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
				return i, malformedf("unknown packet header %#02x at %d", b, base+i)
			}
			ipb := b >> 5
			plen := 1 + int(ipLenNibbles>>(ipb*4)&0xf)
			if i+plen > n {
				d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
				return i, nil // truncated tail
			}
			if ipb != 0 {
				lastIP = ipReconstruct(ipb, buf[i+1:i+plen], lastIP)
			}
			if op == opTIP && !skipping {
				// TIP proper: the one family member that emits a checked
				// record. The signature is already collapsed to
				// TNTSigLongRun when the run overran TNTRunCap (the TNT
				// case maintains that invariant), so the emit path is
				// branch-free on the run state. The record fields are
				// stored straight into the slice slot: appending the
				// composite literal would stage all 32 bytes on the stack
				// and copy them over.
				if len(tips) == cap(tips) {
					tips = append(tips, TIPRecord{})
				} else {
					tips = tips[:len(tips)+1]
				}
				r := &tips[len(tips)-1]
				r.IP = lastIP
				r.TNTSig = sig
				r.Off = base + i
				r.TNTLen = int32(sigN)
				r.Resync = resync
				r.Async = prevFUP
				r.Mod, r.Memo = 0, 0 // the slot may hold a dropped record's annotations
				sig, sigN = TNTSigEmpty, 0
				resync = false
			}
			prevFUP = op == opFUP && !inPSB
			i += plen
			continue
		}
		e := pktTab[b]
		c := e & pcClassMask
		if c == pcTNT {
			// The header's own outcomes are folded on the spot (counted
			// only, past the cap): a one-byte run, the common case
			// between TIPs, costs no probe.
			prevFUP = false
			i++
			if !skipping {
				if sigN <= TNTRunCap {
					sig = tntFold(sig, b)
				}
				sigN += int(e >> 8)
			}
			if i+8 <= n && isTNTHeader(buf[i]) {
				// The run goes on: count the rest of it first, a word at
				// a time. Each probe finds the word's TNT prefix and its
				// outcome count, so a run's mixed last word is consumed
				// here too and the next dispatch lands on the packet
				// that ends the run.
				p := i
				cnt := 0
				for i+8 <= n {
					w := leUint64(buf[i:])
					k := tntPrefixLen(w)
					cnt += tntPrefixBits(w, k)
					i += k
					if k < 8 {
						break
					}
				}
				// Outcomes are discarded while resynchronizing after OVF.
				// Below the cap the counted bytes (at most TNTRunCap of
				// them) are folded byte-serially; a run that passes the
				// cap is never folded past its header.
				if !skipping {
					if sigN+cnt <= TNTRunCap {
						for ; p < i; p++ {
							sig = tntFold(sig, buf[p])
						}
					}
					sigN += cnt
				}
			}
			// Maintain the emit invariant: once the run overruns the cap,
			// sig IS the long-run wildcard, so the TIP case never has to
			// re-check the length (sig is reset at every emit and every
			// OVF).
			if sigN > TNTRunCap {
				sig = TNTSigLongRun
			}
		} else if c == pcPAD {
			i++
			// Skip whole zero words: PAD fills ToPA region tails.
			for i+8 <= n && leUint64(buf[i:]) == 0 {
				i += 8
			}
		} else if c == pcExt {
			if i+1 >= n {
				d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
				return i, nil // truncated tail
			}
			switch buf[i+1] {
			case extPSB:
				if i+PSBSize > n {
					d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
					if isPSBPrefix(buf[i:]) {
						return i, nil // PSB split across chunks
					}
					return i, malformedf("malformed PSB at %d", base+i)
				}
				if !isPSBAt(buf, i) {
					d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
					return i, malformedf("malformed PSB at %d", base+i)
				}
				d.pts = append(d.pts, base+i)
				lastIP = 0
				d.synced = true
				inPSB = true
				prevFUP = false
				if skipping {
					skipping = false
					resync = true
				}
				i += PSBSize
			case extPSBEND:
				inPSB = false
				prevFUP = false
				i += 2
			case extPIP:
				if i+10 > n {
					d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
					return i, nil
				}
				prevFUP = false
				i += 10
			case extMODE:
				if i+modePacketLen > n {
					d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
					return i, nil
				}
				prevFUP = false
				i += modePacketLen
			case extOVF:
				// Data lost: the accumulated TNT run is unreliable, and
				// so is everything up to the next sync point.
				sig, sigN = TNTSigEmpty, 0
				skipping = true
				prevFUP = false
				d.ovf++
				d.lastOVF = base + i
				i += 2
			default:
				d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
				return i, malformedf("unknown extended opcode %#02x at %d", buf[i+1], base+i)
			}
		} else { // pcBad: an even byte that is no packet — impossible TNT
			d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
			return i, malformedf("malformed TNT byte %#02x at %d", b, base+i)
		}
	}
	d.stash(lastIP, sig, sigN, skipping, resync, inPSB, prevFUP, tips)
	return i, nil
}

// stash writes the register-carried scan state back to the decoder; every
// scan exit calls it exactly once.
func (d *WindowDecoder) stash(lastIP, sig uint64, sigN int, skipping, resync, inPSB, prevFUP bool, tips []TIPRecord) {
	d.lastIP = lastIP
	d.sig = sig
	d.sigN = sigN
	d.skipping = skipping
	d.resync = resync
	d.inPSB = inPSB
	d.prevFUP = prevFUP
	d.tips = tips
}

// isPSBPrefix reports whether tail is a (possibly incomplete) prefix of a
// PSB packet.
func isPSBPrefix(tail []byte) bool {
	for j, b := range tail {
		if j%2 == 0 {
			if b != 0x02 {
				return false
			}
		} else if b != extPSB {
			return false
		}
	}
	return true
}

// TipsFrom returns the suffix of tips whose records sit at or after
// absolute stream offset lo (binary search on the ascending Off field).
//
//fg:hotpath
func TipsFrom(tips []TIPRecord, lo int) []TIPRecord {
	a, b := 0, len(tips)
	for a < b {
		m := (a + b) / 2
		if tips[m].Off < lo {
			a = m + 1
		} else {
			b = m
		}
	}
	return tips[a:]
}

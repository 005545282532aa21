package ipt

import "sync"

// ToPA models the Table-of-Physical-Addresses output scheme: trace bytes
// stream into a chain of regions; when the last region fills, the table
// either wraps (losing the oldest data, the paper's default with two
// regions) or raises the buffer-full PMI that §7.1.2 proposes as the
// worst-case endpoint.
//
// A region's configured size (its share of Capacity) is distinct from
// the memory backing it. A region of at most eagerRegionBytes is backed
// in full when the table is made, so the deployed tables (the kernel
// module's 2×8 KiB, the fleet's and the multicore cores' regions) never
// allocate on Write. A larger region starts with eagerRegionBytes of
// backing and grows as bytes reach it: a "record everything" table of
// hundreds of MiB costs only what its trace writes.
//
// Incremental readers (the guard's amortized window decoder) address the
// stream by its monotonic byte offset: TotalWritten is the offset one
// past the newest byte, Held is how many trailing bytes are still
// resident (State reads both, and Wrapped, at once), FeedRange decodes a
// resident range in place, and AppendSince copies a trailing range out
// without disturbing the write cursor.
//
// All methods are safe for concurrent use: the asynchronous checking
// pipeline reads (AppendSince, SnapshotInto, Gen, TotalWritten) while
// the producer writes. The hook field OnRegionFull must be installed
// before concurrent use begins; it is invoked on the writer's goroutine
// with the buffer's lock released, so the hook may call back into any
// ToPA method (including Write).
type ToPA struct {
	mu sync.Mutex

	regions []region
	// cur/pos locate the write cursor.
	cur, pos int
	// wrapped reports that at least one full pass has occurred, i.e. the
	// logical stream no longer starts at a packet boundary.
	wrapped bool
	// total counts bytes ever written (monotonic).
	total uint64
	// gen is a write generation: it advances on every Write chunk and on
	// Reset, so incremental readers can detect any state change.
	gen uint64
	// resetTotal is the value of total at the last Reset; the physical
	// position of logical byte a is (a-resetTotal) mod Capacity().
	resetTotal uint64
	// OnRegionFull, if non-nil, is invoked each time any region fills —
	// the interrupt real ToPA tables raise per INT-flagged entry. It
	// fires mid-Write, on the writer's goroutine, once per region
	// boundary crossed. The asynchronous pipeline captures here, and the
	// final region's fill (RegionFull.Wrapped) is the buffer-full PMI;
	// the buffer wraps regardless.
	OnRegionFull func(RegionFull)
}

// region is one ToPA output region: its configured size and its
// backing, a prefix of that size covering every byte written to it. A
// region that has filled once is backed in full. Keeping the size next
// to the slice header leaves ToPA at the size it had when every region
// was backed in full, and a check reads the same cache lines.
type region struct {
	buf  []byte
	size int
}

// RegionFull describes one region-boundary crossing for OnRegionFull
// subscribers. All fields are a consistent snapshot taken at the instant
// the region filled (later writes may already have advanced the buffer
// by the time the hook body runs).
type RegionFull struct {
	// Region is the index of the region that just filled.
	Region int
	// Gen is the write generation after the fill.
	Gen uint64
	// Total is the stream offset one past the filled region's last byte.
	Total uint64
	// Wrapped marks the final region's fill: the table wrapped and the
	// oldest resident bytes are being discarded.
	Wrapped bool
}

// eagerRegionBytes is the backing a region gets when the table is made:
// all of it for a region no larger, the start of it for a larger one.
const eagerRegionBytes = 64 << 10

// NewToPA makes a table with the given region sizes. The paper's
// default configuration is two regions (§5.1). Non-positive region sizes
// are dropped — a zero-capacity region can never absorb a write, and a
// table made only of them would spin Write forever — and a table left
// empty falls back to the default configuration.
func NewToPA(regionSizes ...int) *ToPA {
	t := &ToPA{}
	for _, n := range regionSizes {
		if n > 0 {
			t.regions = append(t.regions, region{size: n})
		}
	}
	if len(t.regions) == 0 {
		t.regions = []region{{size: 8 << 10}, {size: 8 << 10}}
	}
	for i := range t.regions {
		t.regions[i].buf = make([]byte, min(t.regions[i].size, eagerRegionBytes))
	}
	return t
}

// Capacity returns the total byte capacity of all regions.
func (t *ToPA) Capacity() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.capacity()
}

func (t *ToPA) capacity() int {
	n := 0
	for i := range t.regions {
		n += t.regions[i].size
	}
	return n
}

// TotalWritten returns the monotonic count of bytes ever written.
func (t *ToPA) TotalWritten() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// State returns the write offset, the resident byte count and the wrap
// flag in one consistent read: TotalWritten, Held and Wrapped under a
// single lock.
func (t *ToPA) State() (total uint64, held int, wrapped bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total, t.held(), t.wrapped
}

// Wrapped reports whether the buffer has discarded its oldest bytes at
// least once since the last Reset: the logical stream no longer starts
// at a packet boundary, and bytes before TotalWritten()-Held() are gone.
func (t *ToPA) Wrapped() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wrapped
}

// Gen returns the write generation: it increases whenever the buffer
// contents change (writes or Reset), never decreases, and is equal
// between two observations only if the buffer is unchanged.
func (t *ToPA) Gen() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gen
}

// Held returns how many of the most recently written logical bytes are
// still resident in the buffer (the span Snapshot would return).
func (t *ToPA) Held() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.held()
}

func (t *ToPA) held() int {
	if t.wrapped {
		return t.capacity()
	}
	return int(t.total - t.resetTotal)
}

// Write appends trace bytes, wrapping when the chain fills. total is
// advanced chunk by chunk so the hooks observe a consistent view; the
// lock is dropped around each hook invocation so hook bodies may read
// the buffer (or even write to it) without deadlocking.
//
//fg:hotpath the producer side of every simulated trace byte
func (t *ToPA) Write(p []byte) {
	for len(p) > 0 {
		t.mu.Lock()
		rg := &t.regions[t.cur]
		r := rg.buf
		if len(r)-t.pos < len(p) && len(r) < rg.size {
			r = t.grow(rg, t.pos+len(p))
		}
		n := copy(r[t.pos:], p)
		t.pos += n
		t.total += uint64(n)
		t.gen++
		p = p[n:]
		// A region is full once backed in full and written to its end;
		// the first test alone settles a write that stops short of the
		// backing's end.
		filled := t.pos == len(r) && len(r) == rg.size
		var ev RegionFull
		if filled {
			ev = RegionFull{Region: t.cur, Gen: t.gen, Total: t.total}
			t.cur++
			t.pos = 0
			if t.cur == len(t.regions) {
				t.cur = 0
				t.wrapped = true
				ev.Wrapped = true
			}
		}
		t.mu.Unlock()
		if filled && t.OnRegionFull != nil {
			t.OnRegionFull(ev)
		}
	}
}

// grow backs the current region rg through at least need bytes (capped
// at its size), at least doubling its backing. A region grows only
// before its first fill, when all its resident bytes lie in the old
// backing, so copying that keeps them. Caller holds mu.
//
//fg:cold a region larger than eagerRegionBytes grows at most log2(size/eagerRegionBytes) times, and deployed regions are backed in full
func (t *ToPA) grow(rg *region, need int) []byte {
	r := make([]byte, min(max(need, 2*len(rg.buf)), rg.size))
	copy(r, rg.buf)
	rg.buf = r
	return r
}

// AppendSince appends the logical stream bytes in [from, TotalWritten())
// to dst and returns the extended slice. It reports false — returning
// dst unchanged — when that range is no longer fully resident (the
// buffer wrapped past it), in which case the caller must resynchronize
// from a fresh Snapshot.
//
//fg:hotpath appends only into the caller's reusable scratch
func (t *ToPA) AppendSince(dst []byte, from uint64) ([]byte, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from > t.total || t.total-from > uint64(t.held()) {
		return dst, false
	}
	for off := from; off < t.total; {
		ri, rp := t.locate(off)
		r := t.regions[ri]
		end := uint64(r.size - rp)
		if rem := t.total - off; rem < end {
			end = rem
		}
		dst = append(dst, r.buf[rp:rp+int(end)]...)
		off += end
	}
	return dst, true
}

// FeedRange feeds the logical stream bytes in [from, to) into d straight
// out of the buffer, region by region, without copying them: a packet
// split across a region boundary is completed by the decoder's carry.
// It reports false — feeding nothing — when that range is not fully
// resident (the buffer wrapped past from, or to lies beyond the write
// offset); a decode error is returned as Feed returns it.
//
//fg:hotpath the guard's window decode reads the ToPA in place
func (t *ToPA) FeedRange(d *WindowDecoder, from, to uint64) (bool, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from > to || to > t.total || t.total-from > uint64(t.held()) {
		return false, nil
	}
	for off := from; off < to; {
		ri, rp := t.locate(off)
		r := t.regions[ri]
		n := uint64(r.size - rp)
		if rem := to - off; rem < n {
			n = rem
		}
		if err := d.Feed(r.buf[rp : rp+int(n)]); err != nil {
			return true, err
		}
		off += n
	}
	return true, nil
}

// locate maps a resident logical offset to (region index, offset within
// region). Caller holds mu.
//
//fg:hotpath
func (t *ToPA) locate(off uint64) (int, int) {
	phys := int((off - t.resetTotal) % uint64(t.capacity()))
	for i := range t.regions {
		n := t.regions[i].size
		if phys < n {
			return i, phys
		}
		phys -= n
	}
	return 0, 0 // unreachable: phys < capacity
}

// Snapshot returns the logical byte stream currently buffered, oldest
// first. After a wrap the stream may begin mid-packet; decoders must
// synchronize to the first PSB.
func (t *ToPA) Snapshot() []byte { return t.SnapshotInto(nil) }

// SnapshotInto appends the buffered stream to dst (usually dst[:0] of a
// reusable buffer) and returns the extended slice.
//
//fg:hotpath appends only into the caller's reusable scratch
func (t *ToPA) SnapshotInto(dst []byte) []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.wrapped {
		for i := 0; i < t.cur; i++ {
			dst = append(dst, t.regions[i].buf...)
		}
		return append(dst, t.regions[t.cur].buf[:t.pos]...)
	}
	dst = append(dst, t.regions[t.cur].buf[t.pos:]...)
	for i := 1; i <= len(t.regions); i++ {
		r := (t.cur + i) % len(t.regions)
		if r == t.cur {
			dst = append(dst, t.regions[r].buf[:t.pos]...)
		} else {
			dst = append(dst, t.regions[r].buf...)
		}
	}
	return dst
}

// Reset discards all buffered bytes (used when tracing is reconfigured).
// The monotonic byte count is preserved; the next write lands at the
// start of the first region.
func (t *ToPA) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur, t.pos, t.wrapped = 0, 0, false
	t.resetTotal = t.total
	t.gen++
}

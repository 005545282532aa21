package module

import (
	"encoding/binary"

	"flowguard/internal/isa"
)

// FetchCursor caches the code map of the segment its owner last fetched
// from, so consecutive fetches in one segment skip the segment search.
// The CPU fetches every instruction it retires through one, and the
// instruction-flow walk steps its blocks through one; both read the same
// per-segment map.
//
// A cursor is bound to the address space it is used with: a fetch from
// another address space (a CPU whose AS was replaced) refills it. It
// never serves a map that Mprotect has dropped, whoever made the call —
// another thread sharing the address space included — because every
// fetch checks that the cached map is still the segment's published one.
// The zero value is ready to use; a cursor is not safe for concurrent
// use.
type FetchCursor struct {
	as  *AddressSpace
	seg *Segment
	m   *CodeMap
}

// Slot returns the decoded slot at pc, or nil where the map does not
// apply: pc unmapped, misaligned or in a segment's partial tail, a
// segment that is writable or not executable, or an undecodable slot.
// At nil the caller fetches and decodes the instruction itself, which
// yields the exact fault or decode error.
func (c *FetchCursor) Slot(as *AddressSpace, pc uint64) *CodeSlot {
	if s := c.Cached(as, pc); s != nil {
		return s
	}
	return c.refill(as, pc)
}

// Cached returns what Slot returns when pc lies in the map the cursor
// holds, and nil otherwise, without refilling the cursor. It is small
// enough to inline, so a per-instruction loop calls it first and Slot
// only at nil.
func (c *FetchCursor) Cached(as *AddressSpace, pc uint64) *CodeSlot {
	if m := c.m; m != nil && c.as == as && c.seg.code.Load() == m {
		if off := pc - m.base; off%isa.InstrSize == 0 && off/isa.InstrSize < uint64(len(m.slots)) {
			if s := &m.slots[off/isa.InstrSize]; s.Instr.Op != undecodable {
				return s
			}
		}
	}
	return nil
}

// Span returns the slots of the code map holding pc and the address of
// slot 0, refilling the cursor as Slot does; ok is false where Slot
// returns nil. A caller that steps the slots itself, by index, keeps the
// cursor's contract by checking Live before every step.
func (c *FetchCursor) Span(as *AddressSpace, pc uint64) (slots []CodeSlot, base uint64, ok bool) {
	if c.Slot(as, pc) == nil {
		return nil, 0, false
	}
	return c.m.slots, c.m.base, true
}

// Live reports whether the map the last successful Span returned is
// still its segment's published map, that is, Mprotect has not dropped
// it since. Call it only after a Span that returned ok.
func (c *FetchCursor) Live() bool { return c.seg.code.Load() == c.m }

// Map returns the map the last successful Span returned. A map's
// identity names its contents: Mprotect replaces a dropped map with a
// new one, never the same pointer.
func (c *FetchCursor) Map() *CodeMap { return c.m }

// refill points the cursor at the map of pc's segment.
func (c *FetchCursor) refill(as *AddressSpace, pc uint64) *CodeSlot {
	c.as, c.seg, c.m = as, as.FindSegment(pc), nil
	if c.seg != nil {
		c.m = as.codeMap(c.seg)
	}
	return c.Cached(as, pc)
}

// DataHint remembers the segment of its owner's last successful data
// access, so loads and stores that stay in one segment (the stack, a
// data section) skip the segment search. Because segments are never
// unmapped, moved or resized, a remembered segment stays valid as a
// range; every access still checks the bounds and the live Perm, so
// Mmap and Mprotect need not invalidate the hint. An access the hint
// cannot serve goes through the address space and raises exactly the
// fault the address space's own accessors raise. The zero value is ready
// to use; a hint is not safe for concurrent use.
type DataHint struct {
	as  *AddressSpace
	seg *Segment
}

// span returns the n bytes at addr for an access needing perm.
func (h *DataHint) span(as *AddressSpace, addr, n uint64, perm Perm, op string) ([]byte, error) {
	if s := h.seg; s != nil && h.as == as && s.Perm&perm == perm {
		if off := addr - s.Base; off < uint64(len(s.Data)) && n <= uint64(len(s.Data))-off {
			return s.Data[off : off+n], nil
		}
	}
	s, err := as.accessSegment(addr, n, perm, op)
	if err != nil {
		return nil, err
	}
	h.as, h.seg = as, s
	off := addr - s.Base
	return s.Data[off : off+n], nil
}

// ReadU64 is as.ReadU64 through the hint.
func (h *DataHint) ReadU64(as *AddressSpace, addr uint64) (uint64, error) {
	b, err := h.span(as, addr, 8, PermR, "read64")
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b), nil
}

// WriteU64 is as.WriteU64 through the hint.
func (h *DataHint) WriteU64(as *AddressSpace, addr, v uint64) error {
	b, err := h.span(as, addr, 8, PermW, "write64")
	if err != nil {
		return err
	}
	binary.LittleEndian.PutUint64(b, v)
	return nil
}

// ReadU8 is as.ReadU8 through the hint.
func (h *DataHint) ReadU8(as *AddressSpace, addr uint64) (byte, error) {
	b, err := h.span(as, addr, 1, PermR, "read8")
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// WriteU8 is as.WriteU8 through the hint.
func (h *DataHint) WriteU8(as *AddressSpace, addr uint64, v byte) error {
	b, err := h.span(as, addr, 1, PermW, "write8")
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// Package fixture holds the allowed hot-path shapes: scratch-slice
// appends, failure-exit error construction, struct/array literals,
// cold helpers, and unannotated functions doing whatever they like.
package fixture

import (
	"errors"
	"fmt"
)

type rec struct {
	ip     uint64
	resync bool
}

type decoder struct {
	tips  []rec
	carry []byte
}

// scratchAppend appends into receiver-owned storage — amortized
// allocation-free, the WindowDecoder pattern.
//
//fg:hotpath
func (d *decoder) scratchAppend(ip uint64) {
	d.tips = append(d.tips, rec{ip: ip})
}

// callerScratch appends into a caller-provided slice — the
// ToPA.AppendSince pattern.
//
//fg:hotpath
func callerScratch(dst []byte, b byte) []byte {
	dst = append(dst, b)
	return dst
}

// derivedScratch routes scratch through a local alias, including a
// [:0] reset.
//
//fg:hotpath
func (d *decoder) derivedScratch(chunk []byte) {
	buf := d.carry
	buf = append(buf[:0], chunk...)
	d.carry = buf
}

// failureExit may build its error inline: the return abandons the fast
// path.
//
//fg:hotpath
func (d *decoder) failureExit(off int) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("malformed packet at %d", off)
	}
	return off, nil
}

// structLiteral and array literals live on the stack.
//
//fg:hotpath
func structLiteral(a, b, c uint64) uint64 {
	h := uint64(0)
	for _, v := range [3]uint64{a, b, c} {
		h = (h ^ v) * 0x100000001b3
	}
	_ = rec{ip: h}
	return h
}

// coldHelper is the sanctioned escape hatch: allocating work hoisted
// into a helper documented as off the steady-state path.
//
//fg:cold builds a diagnostic only after a verdict is reached
func coldHelper(ip uint64) string {
	return fmt.Sprintf("ip=%d", ip)
}

//fg:hotpath
func callsColdHelper(ip uint64) string {
	return coldHelper(ip)
}

// unannotated functions are out of scope entirely.
func unannotated() any {
	_ = errors.New("fine here")
	return map[string]int{"also": 1}
}

// suppressed documents a deliberate exception.
//
//fg:hotpath
func suppressed(n int) []byte {
	//fg:ignore hotpathalloc-interproc fixture demonstrating a documented suppression
	return make([]byte, n)
}

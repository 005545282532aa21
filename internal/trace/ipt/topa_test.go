package ipt

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestToPASnapshotBeforeWrap(t *testing.T) {
	tp := NewToPA(8, 8)
	tp.Write([]byte{1, 2, 3})
	if got := tp.Snapshot(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("snapshot = %v", got)
	}
	tp.Write([]byte{4, 5, 6, 7, 8, 9}) // crosses into region 2
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if got := tp.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	if tp.Capacity() != 16 {
		t.Errorf("capacity = %d", tp.Capacity())
	}
}

func TestToPAWrapKeepsNewestAndFiresPMI(t *testing.T) {
	tp := NewToPA(4, 4)
	pmis := 0
	tp.OnRegionFull = func(ev RegionFull) {
		if ev.Wrapped {
			pmis++
		}
	}
	for i := byte(0); i < 20; i++ {
		tp.Write([]byte{i})
	}
	if pmis != 2 {
		t.Errorf("PMIs = %d, want 2 (20 bytes through 8-byte chain)", pmis)
	}
	snap := tp.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("snapshot length = %d, want capacity", len(snap))
	}
	// Oldest-first: bytes 12..19.
	for i, b := range snap {
		if b != byte(12+i) {
			t.Fatalf("snapshot = %v, want 12..19", snap)
		}
	}
	if tp.TotalWritten() != 20 {
		t.Errorf("total = %d", tp.TotalWritten())
	}
	tp.Reset()
	if len(tp.Snapshot()) != 0 {
		t.Error("Reset left data")
	}
}

// Property: for any write schedule, the snapshot equals the suffix of
// the logical stream, with length min(total, capacity).
func TestQuickToPASuffix(t *testing.T) {
	f := func(chunks [][]byte, sizes [2]uint8) bool {
		r1, r2 := int(sizes[0]%32)+1, int(sizes[1]%32)+1
		tp := NewToPA(r1, r2)
		var all []byte
		for _, c := range chunks {
			if len(c) > 64 {
				c = c[:64]
			}
			tp.Write(c)
			all = append(all, c...)
		}
		want := all
		if len(want) > tp.Capacity() {
			want = want[len(want)-tp.Capacity():]
		}
		return bytes.Equal(tp.Snapshot(), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDefaultRegions: the zero-argument constructor yields the paper's
// two-region configuration.
func TestDefaultRegions(t *testing.T) {
	tp := NewToPA()
	if tp.Capacity() != 16<<10 {
		t.Errorf("default capacity = %d, want 16 KiB (two 8 KiB regions)", tp.Capacity())
	}
}

// fillPattern writes n bytes of a recognizable sequence starting at
// value start.
func fillPattern(t *ToPA, start, n int) {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(start + i)
	}
	t.Write(buf)
}

func TestToPAZeroCapacityRegions(t *testing.T) {
	cases := []struct {
		name    string
		regions []int
		wantCap int
	}{
		{"all-zero falls back to default", []int{0, 0}, 16 << 10},
		{"no regions falls back to default", nil, 16 << 10},
		{"negative dropped", []int{-4, 64}, 64},
		{"zeros dropped between real regions", []int{0, 32, 0, 32}, 64},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp := NewToPA(tc.regions...)
			if got := tp.Capacity(); got != tc.wantCap {
				t.Fatalf("capacity = %d, want %d", got, tc.wantCap)
			}
			// The write must terminate and stay fully accounted: a
			// zero-capacity region surviving into the table would spin
			// Write forever.
			fillPattern(tp, 0, 3*tc.wantCap/2)
			if got := int(tp.TotalWritten()); got != 3*tc.wantCap/2 {
				t.Fatalf("total = %d, want %d", got, 3*tc.wantCap/2)
			}
			if !tp.Wrapped() {
				t.Fatal("overfilled table did not wrap")
			}
			if got := len(tp.Snapshot()); got != tc.wantCap {
				t.Fatalf("snapshot = %d bytes, want full capacity %d", got, tc.wantCap)
			}
		})
	}
}

// TestToPAResetWhileWrapped: Reset on a wrapped buffer must restart the
// resident window cleanly — the next snapshot holds exactly the
// post-Reset bytes, and AppendSince addresses them by the still
// monotonic logical offsets.
func TestToPAResetWhileWrapped(t *testing.T) {
	tp := NewToPA(32, 32)
	fillPattern(tp, 0, 150) // wraps more than twice
	if !tp.Wrapped() {
		t.Fatal("setup: buffer did not wrap")
	}
	genBefore := tp.Gen()
	tp.Reset()
	if tp.Wrapped() {
		t.Fatal("Reset left the buffer marked wrapped")
	}
	if tp.Held() != 0 {
		t.Fatalf("Held after Reset = %d, want 0", tp.Held())
	}
	if tp.Gen() <= genBefore {
		t.Fatal("Reset did not advance the generation")
	}
	if tp.TotalWritten() != 150 {
		t.Fatalf("Reset changed the monotonic total: %d", tp.TotalWritten())
	}

	fillPattern(tp, 200, 20)
	want := make([]byte, 20)
	for i := range want {
		want[i] = byte(200 + i)
	}
	if got := tp.Snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("post-Reset snapshot = %x, want %x", got, want)
	}
	// Logical offsets keep counting across Reset: the post-Reset bytes
	// span [150, 170).
	got, ok := tp.AppendSince(nil, 150)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("AppendSince(150) = %x, %v; want the 20 post-Reset bytes", got, ok)
	}
	if got, ok := tp.AppendSince(nil, 170); !ok || len(got) != 0 {
		t.Fatalf("AppendSince(at head) = %x, %v; want empty, true", got, ok)
	}
	// Pre-Reset offsets are gone even though they are numerically below
	// the total: the resident window starts at the Reset point.
	if _, ok := tp.AppendSince(nil, 149); ok {
		t.Fatal("AppendSince reached across Reset")
	}
}

// TestToPAAppendSinceOlderThanResident: once the buffer wraps, offsets
// below TotalWritten-Held are unservable and must report false — the
// incremental reader's signal to resynchronize from a snapshot.
func TestToPAAppendSinceOlderThanResident(t *testing.T) {
	tp := NewToPA(16, 16)
	fillPattern(tp, 0, 80) // capacity 32, so [48, 80) is resident
	cases := []struct {
		name string
		from uint64
		ok   bool
		len  int
	}{
		{"exact resident start", 48, true, 32},
		{"mid-window", 60, true, 20},
		{"head", 80, true, 0},
		{"one byte too old", 47, false, 0},
		{"ancient", 0, false, 0},
		{"beyond head", 81, false, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := tp.AppendSince(nil, tc.from)
			if ok != tc.ok || len(got) != tc.len {
				t.Fatalf("AppendSince(%d) = %d bytes, %v; want %d bytes, %v",
					tc.from, len(got), ok, tc.len, tc.ok)
			}
			if !ok {
				return
			}
			for i, b := range got {
				if b != byte(int(tc.from)+i) {
					t.Fatalf("byte %d = %#x, want %#x", i, b, byte(int(tc.from)+i))
				}
			}
		})
	}
}

// TestToPASnapshotIntoReuse: SnapshotInto(dst[:0]) must equal Snapshot
// and reuse the backing array once grown.
func TestToPASnapshotIntoReuse(t *testing.T) {
	tp := NewToPA(16, 16)
	fillPattern(tp, 0, 40)
	buf := tp.SnapshotInto(nil)
	if !bytes.Equal(buf, tp.Snapshot()) {
		t.Fatal("SnapshotInto(nil) != Snapshot()")
	}
	p0 := &buf[0]
	buf2 := tp.SnapshotInto(buf[:0])
	if !bytes.Equal(buf2, tp.Snapshot()) {
		t.Fatal("SnapshotInto(reused) != Snapshot()")
	}
	if &buf2[0] != p0 {
		t.Error("SnapshotInto reallocated despite sufficient capacity")
	}
}

// TestToPAAppendSinceMatchesSnapshotTail: for every resident from, the
// AppendSince range equals the snapshot's tail — the equivalence the
// incremental window decoder is built on.
func TestToPAAppendSinceMatchesSnapshotTail(t *testing.T) {
	tp := NewToPA(8, 24) // asymmetric regions exercise locate()
	for round := 0; round < 10; round++ {
		fillPattern(tp, round*13, 7+round*5)
		snap := tp.Snapshot()
		lo := tp.TotalWritten() - uint64(tp.Held())
		for from := lo; from <= tp.TotalWritten(); from++ {
			got, ok := tp.AppendSince(nil, from)
			if !ok {
				t.Fatalf("round %d: AppendSince(%d) refused a resident offset", round, from)
			}
			want := snap[from-lo:]
			if !bytes.Equal(got, want) {
				t.Fatalf("round %d: AppendSince(%d) diverges from snapshot tail", round, from)
			}
		}
	}
}

package ipt

// ToPA concurrency and hook-semantics coverage for the asynchronous
// checking pipeline: OnRegionFull event fields and ordering, hook
// re-entrancy, a writer-vs-readers race test (meaningful under -race;
// CI runs it there) asserting the snapshot/AppendSince contract holds
// while the generation advances concurrently, and the capture-by-offset
// race of the asynchronous pipeline.

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
)

// TestToPAOnRegionFullSemantics: one event per region boundary, with a
// consistent snapshot of (Region, Gen, Total), and Wrapped (the
// buffer-full PMI) only on the final region.
func TestToPAOnRegionFullSemantics(t *testing.T) {
	tp := NewToPA(8, 8)
	var evs []RegionFull
	tp.OnRegionFull = func(ev RegionFull) { evs = append(evs, ev) }

	tp.Write(make([]byte, 5))
	if len(evs) != 0 {
		t.Fatalf("events before any region filled: %v", evs)
	}
	tp.Write(make([]byte, 15)) // fills region 0 at 8 and region 1 at 16
	tp.Write(make([]byte, 4))  // fills region 0 again at 24
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3: %v", len(evs), evs)
	}
	want := []RegionFull{
		{Region: 0, Total: 8, Gen: evs[0].Gen},
		{Region: 1, Total: 16, Gen: evs[1].Gen, Wrapped: true},
		{Region: 0, Total: 24, Gen: evs[2].Gen},
	}
	for i, ev := range evs {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	if evs[0].Gen >= evs[1].Gen || evs[1].Gen >= evs[2].Gen {
		t.Errorf("generations not increasing across fills: %v", evs)
	}
}

// TestToPAOnRegionFullReentrancy: the hook runs with the buffer lock
// released, so it may read the buffer — the capture pattern — and even
// write to it.
func TestToPAOnRegionFullReentrancy(t *testing.T) {
	tp := NewToPA(8, 8)
	var captured [][]byte
	depth := 0
	tp.OnRegionFull = func(ev RegionFull) {
		if depth > 0 {
			return // the hook's own write may fill the next region
		}
		depth++
		defer func() { depth-- }()
		got, ok := tp.AppendSince(nil, ev.Total-8)
		if !ok {
			t.Errorf("AppendSince from inside the hook failed at total %d", ev.Total)
		}
		captured = append(captured, got)
		if ev.Total == 8 {
			tp.Write([]byte{0xEE}) // re-entrant write must not deadlock
		}
	}
	tp.Write(bytes.Repeat([]byte{7}, 8))
	if len(captured) == 0 || len(captured[0]) != 8 {
		t.Fatalf("captured = %v, want the filled 8-byte region", captured)
	}
	if got := tp.TotalWritten(); got != 9 {
		t.Fatalf("total = %d, want 9 (8 + the hook's own write)", got)
	}
}

// TestToPAConcurrentWriteAndReaders races one producer against reader
// goroutines exercising the asynchronous pipeline's exact access mix —
// AppendSince into a reused scratch, SnapshotInto, Gen/Held/TotalWritten
// — and checks the content contract on every read: the stream is the
// byte sequence b(i) = i mod 251, so any correctly copied range is
// verifiable without stopping the writer. Run under -race, this is the
// regression test for the buffer's internal locking.
func TestToPAConcurrentWriteAndReaders(t *testing.T) {
	tp := NewToPA(1<<10, 1<<10)
	const mod = 251
	stop := make(chan struct{})
	var wrote uint64

	checkRange := func(start uint64, b []byte) {
		for i, v := range b {
			if v != byte((start+uint64(i))%mod) {
				t.Errorf("byte %d = %d, want %d", start+uint64(i), v, byte((start+uint64(i))%mod))
				return
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // producer
		defer wg.Done()
		var off uint64
		chunk := make([]byte, 0, 96)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n := 1 + int(off%96)
			chunk = chunk[:0]
			for i := 0; i < n; i++ {
				chunk = append(chunk, byte((off+uint64(i))%mod))
			}
			tp.Write(chunk)
			off += uint64(n)
			atomic.StoreUint64(&wrote, off)
		}
	}()

	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers
			defer wg.Done()
			scratch := make([]byte, 0, 4<<10)
			var cursor uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r {
				case 0: // the capture pattern: incremental AppendSince
					got, ok := tp.AppendSince(scratch[:0], cursor)
					if ok {
						checkRange(cursor, got)
						cursor += uint64(len(got))
					} else {
						cursor = tp.TotalWritten() // outrun: resynchronize
					}
				case 1: // the gate pattern: full snapshot
					snap := tp.SnapshotInto(scratch[:0])
					// Each call is internally consistent: the snapshot is
					// one contiguous range of the modular byte sequence.
					if len(snap) > tp.Capacity() {
						t.Errorf("snapshot longer than capacity: %d", len(snap))
					}
					for i := 1; i < len(snap); i++ {
						if snap[i] != byte((uint64(snap[i-1])+1)%mod) {
							t.Errorf("snapshot not contiguous at %d: %d then %d", i, snap[i-1], snap[i])
							return
						}
					}
				default: // metadata readers
					if h := tp.Held(); h > tp.Capacity() {
						t.Errorf("held %d > capacity", h)
						return
					}
					tp.Gen()
					tp.Wrapped()
				}
			}
		}(r)
	}

	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if atomic.LoadUint64(&wrote) == 0 {
		t.Fatal("producer wrote nothing")
	}
	if tp.TotalWritten() < atomic.LoadUint64(&wrote) {
		t.Fatalf("TotalWritten %d < producer's %d", tp.TotalWritten(), wrote)
	}
}

// TestToPAConcurrentRegionFullCapture races the asynchronous pipeline's
// shape: the region-full hook only records where the filled window ends
// (as guard.EnableAsync installs it), and a reader goroutine feeds each
// recorded range straight out of the ToPA into a WindowDecoder with
// FeedRange while the writer keeps tracing a PSB-led TIP stream. Every
// accepted range must decode cleanly into records the writer traced, and
// a range may be refused only once the writer has run more than the
// buffer's capacity past its start.
func TestToPAConcurrentRegionFullCapture(t *testing.T) {
	tp := NewToPA(512, 512)
	capacity := uint64(tp.Capacity())
	ends := make(chan uint64, 64)
	tp.OnRegionFull = func(ev RegionFull) { ends <- ev.Total }

	const lo, hi = 0x400000, 0x500000 // every traced target lies in [lo, hi)
	var accepted, refused int
	done := make(chan struct{})
	go func() {
		defer close(done)
		d := NewWindowDecoder(0)
		var fed uint64
		for end := range ends {
			ok, err := tp.FeedRange(d, fed, end)
			switch {
			case !ok:
				if w := tp.TotalWritten(); w-fed <= capacity {
					t.Errorf("FeedRange(%d, %d) refused with the writer at %d, within the %d-byte capacity of its start",
						fed, end, w, capacity)
				}
				refused++
				d.Reset(int(end)) // resynchronize at the next PSB, as the guard does
			case err != nil:
				t.Errorf("FeedRange(%d, %d): %v", fed, end, err)
				d.Reset(int(end))
			default:
				accepted++
				for _, r := range d.Tips() {
					if r.IP < lo || r.IP >= hi {
						t.Errorf("record at %d decodes to %#x, which was never traced", r.Off, r.IP)
					}
				}
			}
			fed = end
			d.DropBefore(int(end)) // every record is checked once
		}
	}()

	tr := NewTracer(tp)
	if err := tr.WriteMSR(MSRRTITCtl, CtlTraceEn|CtlBranchEn|CtlUser|CtlToPA); err != nil {
		t.Fatal(err)
	}
	ip := uint64(lo)
	deadline := time.Now().Add(50 * time.Millisecond)
	for i := uint64(0); time.Now().Before(deadline); i++ {
		tgt := lo + i*2654435761%(hi-lo)
		tr.Branch(trace.Branch{Class: isa.CoFIIndirect, Source: ip, Target: tgt, Taken: true})
		ip = tgt
	}
	tr.Flush()
	close(ends)
	<-done
	if accepted == 0 {
		t.Fatalf("no captured range was fed (%d refused)", refused)
	}
}

package ipt

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
)

// eagerToPA is the reference for on-demand backing: the same table with
// every region backed in full from the start, so Write never grows one.
func eagerToPA(sizes ...int) *ToPA {
	t := NewToPA(sizes...)
	for i := range t.regions {
		t.regions[i].buf = make([]byte, t.regions[i].size)
	}
	return t
}

// backingStream returns a packet stream of about n bytes that starts at
// a PSB: TNT runs, indirect calls, returns and far transfers, repeated
// from its first PSB until it is long enough.
func backingStream(t *testing.T, n int) []byte {
	t.Helper()
	tr := NewTracer(NewToPA(1 << 20))
	if err := tr.WriteMSR(MSRRTITCtl, CtlTraceEn|CtlBranchEn|CtlUser|CtlToPA); err != nil {
		t.Fatal(err)
	}
	ip := uint64(0x400000)
	for i := 0; i < 8000; i++ {
		for j := 0; j < i%21; j++ {
			tr.Branch(trace.Branch{Class: isa.CoFICond, Source: ip, Target: ip + 4, Taken: (i+j)%3 != 0})
		}
		cls := isa.CoFIIndirect
		if i%7 == 3 {
			cls = isa.CoFIRet
		}
		tgt := 0x400000 + uint64((i*2654435761)%(1<<20))
		tr.Branch(trace.Branch{Class: cls, Source: ip, Target: tgt, Taken: true})
		if i%11 == 5 {
			tr.Branch(trace.Branch{Class: isa.CoFIFarTransfer, Source: ip, Target: ip + 8, Taken: true})
		}
		ip = tgt
	}
	tr.Flush()
	if tr.Out.Wrapped() {
		t.Fatal("stream outgrew its recording buffer")
	}
	one := tr.Out.Snapshot()
	one = one[Sync(one, 0):]
	var out []byte
	for len(out) < n {
		out = append(out, one...)
	}
	return out
}

// TestToPAOnDemandMatchesEager drives a table backed on demand and its
// fully backed twin through the same random writes — small, medium and
// larger than a region, so writes straddle every seam and some wrap the
// table several times at once — with a Reset before the first wrap and
// another after several. After every write both tables must agree on
// State, Snapshot, AppendSince and FeedRange decodes at random resident
// offsets, and on the RegionFull events since the previous write; the
// on-demand table's backing must never exceed a region's size. The
// byte-level reads (Snapshot, AppendSince, FeedRange) are compared after
// every write that filled a region, grew one or reset the table, and
// after every eighth write; comparing them after all writes made the
// test cost about five times as much, mostly in copies of the whole
// table.
func TestToPAOnDemandMatchesEager(t *testing.T) {
	cases := []struct {
		name  string
		sizes []int
		grows bool
	}{
		{"below-eager", []int{8 << 10, 8 << 10}, false},
		{"at-eager", []int{eagerRegionBytes, 3 << 10}, false},
		{"above-eager", []int{200 << 10, 300 << 10}, true},
		{"mixed", []int{8 << 10, 1 << 20, 70 << 10}, true},
	}
	seeds := int64(3)
	if testing.Short() {
		seeds = 1 // -short -race (make async-smoke) runs every region set once
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				checkOnDemandMatchesEager(t, tc.sizes, tc.grows, seed)
			})
		}
	}
}

func checkOnDemandMatchesEager(t *testing.T, sizes []int, grows bool, seed int64) {
	lazy, eager := NewToPA(sizes...), eagerToPA(sizes...)
	capacity := lazy.Capacity()
	if eager.Capacity() != capacity {
		t.Fatalf("capacity %d, eager twin %d", capacity, eager.Capacity())
	}
	for i, n := range sizes {
		if want := min(n, eagerRegionBytes); len(lazy.regions[i].buf) != want {
			t.Fatalf("region %d (%d B) starts with %d B of backing, want %d", i, n, len(lazy.regions[i].buf), want)
		}
	}
	var lazyEvs, eagerEvs []RegionFull
	lazy.OnRegionFull = func(ev RegionFull) { lazyEvs = append(lazyEvs, ev) }
	eager.OnRegionFull = func(ev RegionFull) { eagerEvs = append(eagerEvs, ev) }

	rng := rand.New(rand.NewSource(seed))
	src := backingStream(t, 5*capacity+256<<10)
	resets := []int{capacity * 2 / 5, capacity * 5 / 2}
	var wraps, records int
	var scratchL, scratchE []byte
	backed := make([]int, len(sizes))
	for off, step := 0, 0; off < 5*capacity; step++ {
		var n int
		switch k := rng.Intn(10); {
		case k < 5:
			n = 1 + rng.Intn(300)
		case k < 8:
			n = 1 + rng.Intn(8<<10)
		default:
			n = 1 + rng.Intn(min(2*capacity, 128<<10))
		}
		lazy.Write(src[off : off+n])
		eager.Write(src[off : off+n])
		off += n
		deep := step%8 == 0 || len(lazyEvs) > 0
		if len(resets) > 0 && off >= resets[0] {
			lazy.Reset()
			eager.Reset()
			resets = resets[1:]
			deep = true
		}
		where := fmt.Sprintf("step %d (%d bytes written)", step, off)

		if !reflect.DeepEqual(lazyEvs, eagerEvs) {
			t.Fatalf("%s: RegionFull events %v, eager twin %v", where, lazyEvs, eagerEvs)
		}
		for _, ev := range lazyEvs {
			if ev.Wrapped {
				wraps++
			}
		}
		lazyEvs, eagerEvs = lazyEvs[:0], eagerEvs[:0]

		total, held, wrapped := lazy.State()
		et, eh, ew := eager.State()
		if total != et || held != eh || wrapped != ew || lazy.Gen() != eager.Gen() {
			t.Fatalf("%s: State (%d, %d, %v) gen %d, eager twin (%d, %d, %v) gen %d",
				where, total, held, wrapped, lazy.Gen(), et, eh, ew, eager.Gen())
		}
		for i, r := range lazy.regions {
			if len(r.buf) > r.size {
				t.Fatalf("%s: region %d backs %d B of a %d B region", where, i, len(r.buf), r.size)
			}
			if len(r.buf) != backed[i] {
				backed[i] = len(r.buf)
				deep = true
			}
		}
		if !deep {
			continue
		}
		if !bytes.Equal(lazy.Snapshot(), eager.Snapshot()) {
			t.Fatalf("%s: Snapshot differs from the eager twin's", where)
		}

		// Random resident offsets, one just outside the resident span.
		lo := total - uint64(held)
		for probe := 0; probe < 2; probe++ {
			from := lo + uint64(rng.Int63n(int64(held)+1))
			if probe == 0 && lo > 0 {
				from = lo - 1
			}
			var okL, okE bool
			scratchL, okL = lazy.AppendSince(scratchL[:0], from)
			scratchE, okE = eager.AppendSince(scratchE[:0], from)
			if okL != okE || !bytes.Equal(scratchL, scratchE) {
				t.Fatalf("%s: AppendSince(%d) = %d B ok=%v, eager twin %d B ok=%v",
					where, from, len(scratchL), okL, len(scratchE), okE)
			}
			to := min(total, from+uint64(rng.Intn(96<<10)))
			dl, de := NewWindowDecoder(int(from)), NewWindowDecoder(int(from))
			fedL, errL := lazy.FeedRange(dl, from, to)
			fedE, errE := eager.FeedRange(de, from, to)
			if fedL != fedE || fmt.Sprint(errL) != fmt.Sprint(errE) ||
				!reflect.DeepEqual(dl.Tips(), de.Tips()) ||
				!reflect.DeepEqual(dl.SyncPoints(), de.SyncPoints()) ||
				dl.Consumed() != de.Consumed() {
				t.Fatalf("%s: FeedRange(%d, %d) = %v, %v with %d records, eager twin %v, %v with %d",
					where, from, to, fedL, errL, len(dl.Tips()), fedE, errE, len(de.Tips()))
			}
			records += len(dl.Tips())
		}
	}
	if len(resets) != 0 || wraps < 2 || records == 0 {
		t.Fatalf("degenerate run: %d resets left, %d wraps, %d records decoded", len(resets), wraps, records)
	}
	grew := false
	for _, r := range lazy.regions {
		grew = grew || len(r.buf) > min(r.size, eagerRegionBytes)
	}
	if grew != grows {
		t.Fatalf("backing grew = %v, want %v", grew, grows)
	}
}

// TestToPAOnDemandAllocationBound: a "record everything" table costs
// what its trace writes, not its capacity.
func TestToPAOnDemandAllocationBound(t *testing.T) {
	chunk := make([]byte, 4<<10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tp := NewToPA(256 << 20)
	for written := 0; written < 400<<10; written += len(chunk) {
		tp.Write(chunk)
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Fatalf("NewToPA(256 MiB) plus 400 KiB of writes allocated %d B, want < 4 MiB", got)
	}
	if tp.Held() != 400<<10 || tp.Capacity() != 256<<20 {
		t.Fatalf("held %d, capacity %d", tp.Held(), tp.Capacity())
	}
}

package ipt_test

// Tests of the incremental WindowDecoder: chunked feeding must agree
// byte-for-byte with the batch fast decoder over the same stream, because
// the guard's amortized window cache substitutes one for the other.

import (
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// synthStream produces a trace stream mixing TNT runs (short and
// long/capped), indirect TIPs, far transfers and periodic PSBs, plus the
// batch reference decode of it.
func synthStream(t *testing.T, branches int) ([]byte, []ipt.TIPRecord) {
	t.Helper()
	tr := ipt.NewTracer(ipt.NewToPA(1 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlDefault); err != nil {
		t.Fatal(err)
	}
	ip := uint64(0x400000)
	for i := 0; i < branches; i++ {
		// A TNT run whose length cycles through short and capped.
		run := i % (ipt.TNTRunCap + 5)
		for j := 0; j < run; j++ {
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
	buf := tr.Out.Snapshot()
	evs, err := ipt.DecodeFast(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf, ipt.ExtractTIPs(evs)
}

func TestWindowDecoderMatchesBatchDecode(t *testing.T) {
	buf, want := synthStream(t, 400)
	if len(want) < 100 {
		t.Fatalf("degenerate stream: %d TIPs", len(want))
	}
	d := ipt.NewWindowDecoder(0)
	if err := d.Feed(buf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Tips(), want) {
		t.Fatalf("single-feed decode diverges from batch decode: %d vs %d records", len(d.Tips()), len(want))
	}
	if !reflect.DeepEqual(d.SyncPoints(), ipt.SyncPoints(buf)) {
		t.Fatal("sync points diverge from batch scan")
	}
}

func TestWindowDecoderChunkedFeeds(t *testing.T) {
	buf, want := synthStream(t, 300)
	for _, chunk := range []int{1, 2, 3, 5, 7, 16, 64, 1023} {
		d := ipt.NewWindowDecoder(0)
		for off := 0; off < len(buf); off += chunk {
			end := off + chunk
			if end > len(buf) {
				end = len(buf)
			}
			if err := d.Feed(buf[off:end]); err != nil {
				t.Fatalf("chunk=%d: %v", chunk, err)
			}
		}
		if !reflect.DeepEqual(d.Tips(), want) {
			t.Fatalf("chunk=%d: chunked decode diverges from batch decode", chunk)
		}
		if d.Consumed() != len(buf) {
			t.Fatalf("chunk=%d: consumed %d of %d bytes", chunk, d.Consumed(), len(buf))
		}
	}
}

// TestWindowDecoderSyncsMidStream models the post-wrap case: the stream
// handed to the decoder starts mid-packet, and decoding must begin at the
// first PSB, exactly as the batch path (Sync + DecodeFast) does.
func TestWindowDecoderSyncsMidStream(t *testing.T) {
	buf, _ := synthStream(t, 300)
	cut := len(buf) / 3
	sub := buf[cut:]
	p := ipt.Sync(sub, 0)
	if p <= 0 {
		t.Fatalf("no interior PSB after cut (p=%d); test needs periodic PSBs", p)
	}
	evs, err := ipt.DecodeFast(sub[p:])
	if err != nil {
		t.Fatal(err)
	}
	want := ipt.ExtractTIPs(evs)

	d := ipt.NewWindowDecoder(0)
	for off := 0; off < len(sub); off += 13 {
		end := off + 13
		if end > len(sub) {
			end = len(sub)
		}
		if err := d.Feed(sub[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Tips()
	if len(got) != len(want) {
		t.Fatalf("mid-stream decode: %d records, want %d", len(got), len(want))
	}
	for i := range got {
		// Offsets are relative to the feed origin vs the PSB slice.
		if got[i].IP != want[i].IP || got[i].TNTSig != want[i].TNTSig || got[i].Off != want[i].Off+p {
			t.Fatalf("record %d diverges: %+v vs %+v (p=%d)", i, got[i], want[i], p)
		}
	}
	if d.SyncPoints()[0] != p {
		t.Fatalf("first sync point %d, want %d", d.SyncPoints()[0], p)
	}
}

func TestWindowDecoderDropBefore(t *testing.T) {
	buf, all := synthStream(t, 2000)
	d := ipt.NewWindowDecoder(0)
	if err := d.Feed(buf); err != nil {
		t.Fatal(err)
	}
	pts := append([]int(nil), d.SyncPoints()...)
	if len(pts) < 4 {
		t.Fatalf("%d sync points: the stream is too short to cut between them", len(pts))
	}
	// A record cutoff below the sync-point cutoff drops both at lo; one
	// above it drops only records, and the sync points keep lo's cut.
	lo, tipLo := all[len(all)/4].Off, all[len(all)/2].Off
	for _, cut := range []struct{ lo, tipLo, want int }{{lo, 0, lo}, {lo, lo - 1, lo}, {lo, tipLo, tipLo}} {
		d.DropBefore(cut.lo, cut.tipLo)
		if !reflect.DeepEqual(d.Tips(), ipt.TipsFrom(all, cut.want)) {
			t.Fatalf("DropBefore(%d, %d) keeps %d records, want the %d from %d on", cut.lo, cut.tipLo, len(d.Tips()), len(ipt.TipsFrom(all, cut.want)), cut.want)
		}
		var wantPts []int
		for _, p := range pts {
			if p >= cut.lo {
				wantPts = append(wantPts, p)
			}
		}
		if !slices.Equal(d.SyncPoints(), wantPts) {
			t.Fatalf("DropBefore(%d, %d) keeps sync points %v, want %v", cut.lo, cut.tipLo, d.SyncPoints(), wantPts)
		}
	}
	// Decoding continues seamlessly after compaction.
	before := len(d.Tips())
	tr := ipt.NewTracer(ipt.NewToPA(1 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlDefault); err != nil {
		t.Fatal(err)
	}
	tr.Branch(trace.Branch{Class: isa.CoFIIndirect, Source: 0x400000, Target: 0x400100, Taken: true})
	tr.Flush()
	if err := d.Feed(tr.Out.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if len(d.Tips()) <= before {
		t.Fatal("no records decoded after DropBefore")
	}
}

// TestTIPRecordSize pins the record at 32 bytes, two per cache line:
// the consumer annotation bytes live in what was the struct's padding.
func TestTIPRecordSize(t *testing.T) {
	if n := unsafe.Sizeof(ipt.TIPRecord{}); n != 32 {
		t.Fatalf("TIPRecord is %d bytes, want 32", n)
	}
}

// TestWindowDecoderZeroesAnnotations: the decoder emits every record
// with zero Mod and Memo, also into storage slots that held records a
// consumer annotated: after Reset, and after a DropBefore compaction.
// Live records keep their annotations when compaction moves them. A
// stale Memo byte on a fresh record would let the guard pass an edge it
// never looked up.
func TestWindowDecoderZeroesAnnotations(t *testing.T) {
	buf, all := synthStream(t, 200)
	mark := func(tips []ipt.TIPRecord) {
		for i := range tips {
			tips[i].Mod, tips[i].Memo = 0xff, 1
		}
	}
	requireZero := func(what string, tips []ipt.TIPRecord) {
		t.Helper()
		if len(tips) == 0 {
			t.Fatalf("%s: no records decoded", what)
		}
		for i, r := range tips {
			if r.Mod != 0 || r.Memo != 0 {
				t.Fatalf("%s: record %d of %d decoded with Mod=%d Memo=%d", what, i, len(tips), r.Mod, r.Memo)
			}
		}
	}
	d := ipt.NewWindowDecoder(0)
	if err := d.Feed(buf); err != nil {
		t.Fatal(err)
	}
	requireZero("first decode", d.Tips())
	mark(d.Tips())
	_, capBefore := ipt.StoredTips(d)
	d.Reset(0)
	if err := d.Feed(buf); err != nil {
		t.Fatal(err)
	}
	if _, c := ipt.StoredTips(d); c != capBefore {
		t.Fatalf("Reset did not reuse the record storage (capacity %d, then %d)", capBefore, c)
	}
	requireZero("after Reset", d.Tips())

	mark(d.Tips())
	d.DropBefore(all[len(all)*3/4].Off, 0)
	live := len(d.Tips())
	if stored, _ := ipt.StoredTips(d); stored != live {
		t.Fatalf("DropBefore of three quarters did not compact: %d stored, %d live", stored, live)
	}
	for i, r := range d.Tips() {
		if r.Mod != 0xff || r.Memo != 1 {
			t.Fatalf("compaction lost the annotations of live record %d", i)
		}
	}
	// The stream goes on with the same bytes (it opens with a PSB); the
	// new records land in the slots the dropped, annotated ones held.
	if err := d.Feed(buf); err != nil {
		t.Fatal(err)
	}
	if len(d.Tips()) < live+len(all) {
		t.Fatalf("%d records after the second feed, want at least %d", len(d.Tips()), live+len(all))
	}
	requireZero("after DropBefore compaction", d.Tips()[live:])
}

func TestTipsFrom(t *testing.T) {
	_, all := synthStream(t, 100)
	if got := ipt.TipsFrom(all, 0); len(got) != len(all) {
		t.Fatalf("TipsFrom(0) = %d records, want all %d", len(got), len(all))
	}
	if got := ipt.TipsFrom(all, all[len(all)-1].Off+1); len(got) != 0 {
		t.Fatalf("TipsFrom(past end) = %d records, want 0", len(got))
	}
	mid := all[len(all)/2].Off
	got := ipt.TipsFrom(all, mid)
	if got[0].Off != mid {
		t.Fatalf("TipsFrom(%d) starts at %d", mid, got[0].Off)
	}
	if len(got) != len(all)-len(all)/2 {
		t.Fatalf("TipsFrom(%d) = %d records", mid, len(got))
	}
}

// TestToPAAppendSince pins the incremental-read surface the guard's
// window cache is built on.
func TestToPAAppendSince(t *testing.T) {
	topa := ipt.NewToPA(64, 64)
	write := func(n int, v byte) {
		b := make([]byte, n)
		for i := range b {
			b[i] = v
		}
		topa.Write(b)
	}
	write(40, 1)
	if got, ok := topa.AppendSince(nil, 0); !ok || len(got) != 40 {
		t.Fatalf("AppendSince(0) = %d bytes, ok=%v", len(got), ok)
	}
	write(40, 2) // crosses into region 2
	got, ok := topa.AppendSince(nil, 40)
	if !ok || len(got) != 40 || got[0] != 2 {
		t.Fatalf("AppendSince(40) = %d bytes ok=%v", len(got), ok)
	}
	write(128, 3) // full wrap: everything before is gone
	if _, ok := topa.AppendSince(nil, 40); ok {
		t.Fatal("AppendSince accepted a range the wrap discarded")
	}
	from := topa.TotalWritten() - uint64(topa.Held())
	got, ok = topa.AppendSince(nil, from)
	if !ok || len(got) != topa.Held() {
		t.Fatalf("AppendSince(oldest resident) = %d bytes ok=%v, want %d", len(got), ok, topa.Held())
	}
	if !reflect.DeepEqual(got, topa.Snapshot()) {
		t.Fatal("AppendSince(oldest resident) diverges from Snapshot")
	}
	// Gen advances on writes and on Reset.
	g0 := topa.Gen()
	write(1, 4)
	if topa.Gen() <= g0 {
		t.Fatal("Gen did not advance on write")
	}
	g1 := topa.Gen()
	topa.Reset()
	if topa.Gen() <= g1 {
		t.Fatal("Gen did not advance on Reset")
	}
	if topa.Held() != 0 {
		t.Fatalf("Held after Reset = %d", topa.Held())
	}
}

// lcg is a deterministic pseudo-random sequence for chunk sizes.
type lcg uint64

func (s *lcg) next(n int) int {
	*s = *s*6364136223846793005 + 1442695040888963407
	return int(uint64(*s)>>33) % n
}

// TestToPAFeedRangeMatchesAppendSince: feeding a decoder straight out of
// the ToPA, region by region, decodes exactly what feeding it the copied
// AppendSince range decodes, across region seams and wraps (the region
// sizes are odd, so packets straddle every seam), and FeedRange refuses
// a range that is not resident without touching the decoder.
func TestToPAFeedRangeMatchesAppendSince(t *testing.T) {
	buf, _ := synthStream(t, 3000)
	topa := ipt.NewToPA(1499, 2531)
	direct, copied := ipt.NewWindowDecoder(0), ipt.NewWindowDecoder(0)
	var fed uint64
	var scratch []byte
	rng := lcg(7)
	for off := 0; off < len(buf); {
		n := 1 + rng.next(1000)
		if off+n > len(buf) {
			n = len(buf) - off
		}
		topa.Write(buf[off : off+n])
		off += n
		total, held, _ := topa.State()
		if ok, err := topa.FeedRange(direct, fed, total); !ok || err != nil {
			t.Fatalf("at %d: FeedRange(%d, %d) = %v, %v", total, fed, total, ok, err)
		}
		var ok bool
		scratch, ok = topa.AppendSince(scratch[:0], fed)
		if !ok {
			t.Fatalf("at %d: AppendSince(%d) refused", total, fed)
		}
		if err := copied.Feed(scratch); err != nil {
			t.Fatal(err)
		}
		fed = total
		lo := int(total) - held
		direct.DropBefore(lo, 0)
		copied.DropBefore(lo, 0)
		if !reflect.DeepEqual(direct.Tips(), copied.Tips()) ||
			!reflect.DeepEqual(direct.SyncPoints(), copied.SyncPoints()) ||
			direct.Consumed() != copied.Consumed() {
			t.Fatalf("at %d: feeding in place diverges from feeding the copied range", total)
		}
	}
	if len(direct.Tips()) == 0 || len(direct.SyncPoints()) == 0 {
		t.Fatal("degenerate run: no resident records or sync points")
	}
	total, held, wrapped := topa.State()
	if !wrapped {
		t.Fatal("buffer never wrapped; test setup broken")
	}
	consumed := direct.Consumed()
	for _, r := range [][2]uint64{
		{total - uint64(held) - 1, total}, // starts before the oldest resident byte
		{total - 1, total + 1},            // ends past the write offset
		{total, total - 1},                // empty-negative range
	} {
		if ok, err := topa.FeedRange(direct, r[0], r[1]); ok || err != nil {
			t.Fatalf("FeedRange(%d, %d) over a %d-byte stream holding %d = %v, %v; want refused",
				r[0], r[1], total, held, ok, err)
		}
	}
	if direct.Consumed() != consumed {
		t.Fatal("a refused FeedRange fed the decoder")
	}
}

// TestWindowDecoderTrimBoundedAcrossWraps drives the decoder the way the
// guard's window cache does over the deployed 2×8 KiB ToPA — feed the
// appended bytes in place, then drop everything the buffer no longer
// holds — through thousands of wraps. The backing record storage must
// stay within twice the live records plus what one feed decoded (the
// amortized trim compacts only when the dropped prefix outgrows the live
// part), the truncated-packet carry within a few packets, and the live
// records must be the ones a fresh decode of the resident buffer finds.
func TestWindowDecoderTrimBoundedAcrossWraps(t *testing.T) {
	buf, _ := synthStream(t, 6000)
	buf = buf[ipt.Sync(buf, 0):] // repeat the stream from its first PSB
	topa := ipt.NewToPA(8<<10, 8<<10)
	capacity := uint64(topa.Capacity())
	d := ipt.NewWindowDecoder(0)
	var fed uint64
	maxLive, maxFeed := 0, 0
	rng := lcg(11)
	for round, off := 0, 0; fed < 2000*capacity; round++ {
		for n := 1 + rng.next(2048); n > 0; {
			m := min(n, len(buf)-off)
			topa.Write(buf[off : off+m])
			n -= m
			off = (off + m) % len(buf)
		}
		total, held, _ := topa.State()
		before, _ := ipt.StoredTips(d)
		live := len(d.Tips())
		if ok, err := topa.FeedRange(d, fed, total); !ok || err != nil {
			t.Fatalf("round %d: FeedRange(%d, %d) = %v, %v", round, fed, total, ok, err)
		}
		fed = total
		stored, _ := ipt.StoredTips(d)
		feed := stored - before
		if stored > 2*live+feed {
			t.Fatalf("round %d: %d records stored after a feed of %d over %d live ones", round, stored, feed, live)
		}
		lo := int(total) - held
		d.DropBefore(lo, 0)
		stored, _ = ipt.StoredTips(d)
		live = len(d.Tips())
		if stored > 2*live {
			t.Fatalf("round %d: %d records stored for %d live ones after DropBefore", round, stored, live)
		}
		maxLive, maxFeed = max(maxLive, live), max(maxFeed, feed)
		if round%1000 == 0 {
			// The live records past the first resident sync point are
			// the ones a fresh decode of the resident buffer finds (the
			// TNT signature of the first record after the sync point
			// differs: the fresh decoder starts its run there).
			fresh := ipt.NewWindowDecoder(lo)
			if err := fresh.Feed(topa.Snapshot()); err != nil {
				t.Fatal(err)
			}
			want := fresh.Tips()
			got := ipt.TipsFrom(d.Tips(), fresh.SyncPoints()[0])
			if len(got) != len(want) {
				t.Fatalf("round %d: %d live records past the first sync point, fresh decode finds %d", round, len(got), len(want))
			}
			for i := range got {
				if got[i].Off != want[i].Off || got[i].IP != want[i].IP {
					t.Fatalf("round %d: record %d is %+v, fresh decode has %+v", round, i, got[i], want[i])
				}
			}
		}
	}
	if _, c := ipt.StoredTips(d); c > 2*(2*maxLive+maxFeed) {
		t.Fatalf("record storage grew to %d slots; live records never exceeded %d, one feed %d", c, maxLive, maxFeed)
	}
	// Packets split across region seams are completed from the next
	// region's first bytes, not by copying the region behind the carry.
	if c := ipt.CarryCap(d); c > 4*ipt.PSBSize {
		t.Fatalf("carry storage grew to %d bytes", c)
	}
}

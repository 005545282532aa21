package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

func TestQuantileNeedsTenSamplesBeyond(t *testing.T) {
	if got := samplesFor(0.99); got != 1000 {
		t.Fatalf("samplesFor(0.99) = %d, want 1000", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Fatalf("samplesFor(0.5) = %d, want 20", got)
	}
	var d dist
	for v := uint64(1); v <= 999; v++ {
		d.add(v)
	}
	if _, ok := d.quantile(0.99); ok {
		t.Fatal("p99 of 999 samples reported with only 9 samples beyond it")
	}
	d.add(1000)
	v, ok := d.quantile(0.99)
	if !ok {
		t.Fatal("p99 of 1000 samples has 10 beyond it but was refused")
	}
	if math.Abs(v-990) > 990*0.01 {
		t.Fatalf("p99 of 1..1000 = %v, want 990 within the 1%% bucket width", v)
	}
	if p50, _ := d.quantile(0.5); math.Abs(p50-500) > 5 {
		t.Fatalf("p50 of 1..1000 = %v, want 500", p50)
	}
	if m := d.mean(); m != 500.5 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
}

func TestDistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []uint64{0, 1, 255, 256, 257, 1 << 20, 1<<40 + 12345, math.MaxUint64} {
		i := distIndex(v)
		if i < 0 || i >= distBuckets {
			t.Fatalf("value %d maps to bucket %d outside [0,%d)", v, i, distBuckets)
		}
		lo, w := distBucket(i)
		if f := float64(v); f < lo || f >= lo+w*(1+1e-12) {
			t.Fatalf("value %d in bucket %d = [%v,%v)", v, i, lo, lo+w)
		}
	}
}

func TestReconcileFiresOnMismatch(t *testing.T) {
	b := &bench{ph: &phase{}}
	s := b.newSession(kernelsim.New(), noSpan, false)
	if err := s.reconcile(); err != nil {
		t.Fatalf("empty session: %v", err)
	}
	s.calls, s.gate = 1, time.Microsecond // a sample the gate never metered
	if err := s.reconcile(); err == nil || !strings.Contains(err.Error(), "reconcile") {
		t.Fatalf("mismatched samples accepted: %v", err)
	}
}

// exactCounts are the counters a run must reproduce exactly from a seed.
type exactCounts struct {
	checks, slow, tips, scanned  uint64
	attempted, failed, units     uint64
	gateCalls, blocked, forkKids uint64
}

func countsOf(ph *phase) exactCounts {
	return exactCounts{
		checks: ph.stats.Checks, slow: ph.stats.SlowChecks, tips: ph.stats.TIPsChecked,
		scanned: ph.stats.BytesScanned, attempted: ph.attempted, failed: ph.failed,
		units: ph.units, gateCalls: ph.gateCalls, blocked: ph.blocked.n, forkKids: ph.stats.ForkInherits,
	}
}

// runOps builds a workload from seed, sets it up once and runs n
// operations, returning the exact counts and the inputs it generated.
func runOps(t *testing.T, name string, seed int64, n int) (exactCounts, [][]byte) {
	t.Helper()
	wl, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{cfg: config{workload: name, seed: seed}, ph: &phase{}}
	if err := wl.setup(b); err != nil {
		t.Fatal(err)
	}
	var inputs [][]byte
	switch w := wl.(type) {
	case *serverMix:
		for i := 0; i < n; i++ {
			if err := w.op(b, i); err != nil {
				t.Fatal(err)
			}
		}
		for _, in := range append(w.benign, w.attacks...) {
			inputs = append(inputs, in.input)
		}
	case *multicorePreempt:
		for i := 0; i < n; i++ {
			if err := w.op(b, i); err != nil {
				t.Fatal(err)
			}
		}
		for _, rd := range w.rounds {
			inputs = append(inputs, rd.inputs...)
		}
	case *fleetZipf:
		if err := w.measureEvents(b, n); err != nil {
			t.Fatal(err)
		}
		for _, fb := range w.bins {
			inputs = append(inputs, fb.raws...)
		}
	default:
		t.Fatalf("no op driver for %T", wl)
	}
	return countsOf(b.ph), inputs
}

func TestSameSeedSameInputsAndCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs protected sessions")
	}
	for _, tc := range []struct {
		name string
		ops  int
	}{
		{"server-mix", 9},
		{"cold-start", 3},
		{"multicore-preempt", 2},
		{"fleet-zipf", 3000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c1, in1 := runOps(t, tc.name, 7, tc.ops)
			c2, in2 := runOps(t, tc.name, 7, tc.ops)
			if len(in1) != len(in2) {
				t.Fatalf("input pools differ in size: %d vs %d", len(in1), len(in2))
			}
			for i := range in1 {
				if !bytes.Equal(in1[i], in2[i]) {
					t.Fatalf("input %d differs between two runs of seed 7", i)
				}
			}
			if c1 != c2 {
				t.Fatalf("exact counts differ between two runs of seed 7:\n %+v\n %+v", c1, c2)
			}
			if c1.checks == 0 || c1.attempted == 0 || c1.failed != 0 {
				t.Fatalf("implausible run: %+v", c1)
			}
			if c1.gateCalls != c1.blocked && tc.name != "server-mix" {
				t.Fatalf("%d gate calls but %d blocked samples", c1.gateCalls, c1.blocked)
			}
			_, in3 := runOps(t, tc.name, 8, 1)
			same := len(in1) == len(in3)
			for i := 0; same && i < len(in1); i++ {
				same = bytes.Equal(in1[i], in3[i])
			}
			if same {
				t.Fatal("seeds 7 and 8 generated identical inputs")
			}
		})
	}
}

func TestColdStartTakesTheSlowPath(t *testing.T) {
	if testing.Short() {
		t.Skip("runs protected sessions")
	}
	c, _ := runOps(t, "cold-start", 3, 3)
	if c.slow == 0 {
		t.Fatalf("cold-start took no slow path: %+v", c)
	}
	w, _ := runOps(t, "server-mix", 3, 3)
	if w.slow != 0 {
		t.Fatalf("trained benign sessions took the slow path: %+v", w)
	}
}

func TestExploitsAreKilled(t *testing.T) {
	if testing.Short() {
		t.Skip("runs protected sessions")
	}
	wl, err := newServerMix(5, false, true)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{ph: &phase{}}
	if err := wl.setup(b); err != nil {
		t.Fatal(err)
	}
	for _, in := range wl.attacks {
		if err := b.solo(wl.an[in.app], in, guard.DefaultPolicy()); err != nil {
			t.Fatal(err)
		}
	}
	if b.ph.failed != 0 || b.ph.attempted != uint64(len(wl.attacks)) {
		t.Fatalf("exploits: %d attempted, %d failed: %v", b.ph.attempted, b.ph.failed, b.ph.failures)
	}
	if b.ph.blocked.n != 0 || b.ph.detect.n == 0 {
		t.Fatalf("exploit endpoints leaked into the benign blocked samples: blocked %d detect %d",
			b.ph.blocked.n, b.ph.detect.n)
	}
}

// The fleet's shadow decoder must find the TIP targets the fast decoder
// finds, whether it reads a trace whole or in chunks with the cut packet
// carried over, as the shadows do.
func TestShadowDecoderFindsTheTIPs(t *testing.T) {
	a := apps.Nginx()
	raw, err := recordTrace(a, a.MakeInput(5, 1))
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ipt.DecodeFast(raw)
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	for _, e := range evs {
		if e.Kind == ipt.KindTIP {
			want = append(want, e.IP)
		}
	}
	const ipMask = 1<<48 - 1 // above it, the shadow folds in the TNT outcome count
	whole, n, _ := probeDecode(raw, 0, nil)
	if n != len(raw) {
		t.Fatalf("whole trace: decoded %d of %d bytes", n, len(raw))
	}
	var chunked []uint64
	s := newShadowProc(raw, 0)
	for s.cur < len(raw) {
		b := append(s.buf[:s.pend], raw[s.cur:min(s.cur+fleetChunk, len(raw))]...)
		s.cur = min(s.cur+fleetChunk, len(raw))
		var tips []uint64
		tips, n, s.last = probeDecode(b, s.last, nil)
		s.pend = copy(b, b[n:])
		chunked = append(chunked, tips...)
	}
	for name, got := range map[string][]uint64{"whole": whole, "chunked": chunked} {
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d TIPs, the fast decoder found %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i]&ipMask != want[i] {
				t.Fatalf("%s: TIP %d at %#x, the fast decoder says %#x", name, i, got[i]&ipMask, want[i])
			}
		}
	}
}

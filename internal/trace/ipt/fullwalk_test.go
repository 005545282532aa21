package ipt

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/progen"
)

// walkFixture is a traced run: the address space it ran in and the
// complete trace buffer it produced.
type walkFixture struct {
	name string
	as   *module.AddressSpace
	buf  []byte
}

// traceProcess runs p to completion under a tracer with a short PSB
// period (many sync points to cut windows at), rendering kernel-performed
// transfers as async FUP+TIP pairs.
func traceProcess(t testing.TB, k *kernelsim.Kernel, p *kernelsim.Process, name string) walkFixture {
	t.Helper()
	tr := NewTracer(NewToPA(16 << 20))
	tr.PSBPeriod = 64
	if err := tr.WriteMSR(MSRRTITCtl, CtlTraceEn|CtlBranchEn|CtlUser|CtlToPA); err != nil {
		t.Fatal(err)
	}
	p.CPU.Branch = tr
	k.OnAsyncFlow = func(_ *kernelsim.Process, from, to uint64) { tr.AsyncEvent(from, to) }
	if st, err := k.Run(p, 5_000_000); err != nil || !st.Exited {
		t.Fatalf("%s: run: %v %v", name, st, err)
	}
	tr.Flush()
	return walkFixture{name: name, as: p.AS, buf: tr.Out.Snapshot()}
}

// progenFixture traces one random program.
func progenFixture(t testing.TB, seed int64) walkFixture {
	t.Helper()
	cfg := progen.DefaultConfig(seed)
	if seed%2 == 1 {
		cfg.MaxLoop, cfg.CallFanout = 10, 4
	}
	prog, err := progen.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("randprog", prog.Exec, prog.Libs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return traceProcess(t, k, p, fmt.Sprintf("progen-%d", seed))
}

// appFixture traces one run of a named app on the given stdin.
func appFixture(t testing.TB, name string, stdin []byte) walkFixture {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	k := kernelsim.New()
	p, err := app.Spawn(k, stdin)
	if err != nil {
		t.Fatal(err)
	}
	return traceProcess(t, k, p, name)
}

// psbOffsets returns the stream offsets of every PSB in buf.
func psbOffsets(buf []byte) []int {
	evs, err := DecodeFast(buf)
	if err != nil {
		return nil
	}
	var offs []int
	for _, e := range evs {
		if e.Kind == KindPSB {
			offs = append(offs, e.Off)
		}
	}
	return offs
}

// walkWindows derives the windows the walks are compared on from one
// trace: the whole trace, windows cut at random PSBs (and some cut short
// at a random end), bit-flipped windows, and windows with an OVF
// spliced in at a random packet boundary.
func walkWindows(rng *rand.Rand, buf []byte, n int) [][]byte {
	out := [][]byte{buf}
	psbs := psbOffsets(buf)
	if len(psbs) == 0 {
		return out
	}
	for range n {
		start := psbs[rng.Intn(len(psbs))]
		w := buf[start:]
		if rng.Intn(2) == 0 {
			w = w[:1+rng.Intn(len(w))]
		}
		out = append(out, w)

		flipped := append([]byte(nil), w...)
		for range 1 + rng.Intn(3) {
			flipped[rng.Intn(len(flipped))] ^= 1 << rng.Intn(8)
		}
		out = append(out, flipped)

		if evs, err := DecodeFast(w); err == nil && len(evs) > 1 {
			at := evs[1+rng.Intn(len(evs)-1)].Off
			spliced := append(append(append([]byte(nil), w[:at]...), 0x02, extOVF), w[at:]...)
			out = append(out, spliced)
		}
	}
	return out
}

// checkWalkMatchesReference fails unless the block walk and the
// reference walk agree on the whole FullTrace and on the error text.
func checkWalkMatchesReference(t *testing.T, as *module.AddressSpace, w []byte, maxInstrs uint64) {
	t.Helper()
	got, gerr := DecodeFull(as, w, maxInstrs)
	want, werr := decodeFullReference(as, w, maxInstrs)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("max %d, %d-byte window: error %v, reference %v", maxInstrs, len(w), gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("max %d, %d-byte window: trace differs from reference\n got: %+v\nwant: %+v",
			maxInstrs, len(w), summarize(got), summarize(want))
	}
}

func summarize(ft *FullTrace) string {
	if ft == nil {
		return "<nil>"
	}
	return fmt.Sprintf("instrs=%d start=%#x end=%#x flow=%d resyncs=%d points=%v",
		ft.Instrs, ft.StartIP, ft.EndIP, len(ft.Flow), ft.Resyncs, ft.ResyncPoints)
}

// TestFlowWalkMatchesReference is the differential property of the
// block-stepping walk: over random programs and the signal/thread
// workloads (async FUP+TIP pairs), whole, truncated, bit-flipped and
// OVF-spliced windows, and random instruction caps, it reconstructs
// exactly what the instruction-by-instruction walk does.
func TestFlowWalkMatchesReference(t *testing.T) {
	seeds, cuts := 12, 40
	if testing.Short() {
		seeds, cuts = 4, 15
	}
	var fixtures []walkFixture
	for seed := range int64(seeds) {
		fixtures = append(fixtures, progenFixture(t, seed))
	}
	fixtures = append(fixtures,
		appFixture(t, "signald", []byte("aSbSSab S aSSSbaSab")),
		appFixture(t, "threadd", []byte{1, 'a', 'b', 'c', 'd'}),
	)
	asyncPairs := 0
	for i, fx := range fixtures {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		if evs, err := DecodeFast(fx.buf); err == nil {
			for _, r := range ExtractTIPs(evs) {
				if r.Async {
					asyncPairs++
				}
			}
		}
		t.Run(fx.name, func(t *testing.T) {
			for _, w := range walkWindows(rng, fx.buf, cuts) {
				checkWalkMatchesReference(t, fx.as, w, 0)
				full, err := decodeFullReference(fx.as, w, 0)
				if err != nil || full == nil || full.Instrs == 0 {
					continue
				}
				for range 3 {
					checkWalkMatchesReference(t, fx.as, w, 1+uint64(rng.Int63n(int64(full.Instrs))))
				}
			}
		})
	}
	if asyncPairs == 0 {
		t.Fatal("no fixture produced an async FUP+TIP pair")
	}
}

// TestFlowWalkSharedMapRace runs the walk from four goroutines over one
// address space before any code map exists: every walk must reconstruct
// the same trace, and each segment's map must be built once — as many
// maps as one walk alone builds over an identical address space.
func TestFlowWalkSharedMapRace(t *testing.T) {
	fx := progenFixture(t, 3)
	solo, shared := fx.as.Clone(), fx.as.Clone()
	want, err := DecodeFull(solo, fx.buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if solo.CodeMapsBuilt() == 0 {
		t.Fatal("the walk built no code map")
	}
	const walkers = 4
	got := make([]*FullTrace, walkers)
	errs := make([]error, walkers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range walkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[i], errs[i] = DecodeFull(shared, fx.buf, 0)
		}()
	}
	close(start)
	wg.Wait()
	for i := range walkers {
		if errs[i] != nil {
			t.Fatalf("walker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("walker %d: trace differs: %s vs %s", i, summarize(got[i]), summarize(want))
		}
	}
	if n, m := shared.CodeMapsBuilt(), solo.CodeMapsBuilt(); n != m {
		t.Fatalf("four concurrent walks built %d maps, one walk builds %d", n, m)
	}
}

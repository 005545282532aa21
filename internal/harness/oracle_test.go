package harness

import (
	"encoding/hex"
	"flag"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/oracle"
)

var seedFile = flag.String("seedfile", "", "replay a dumped property-failure artifact (TestOracleReplay)")

// propSeeds sizes the seeded property sweeps. The default keeps them
// within tier-1 time; `make property` runs the full 1000 seeds.
var propSeeds = flag.Int("propseeds", 120, "seeds per property sweep (TestPropertyForkInheritance, TestPropertyDemuxRoundTrip)")

// The fixture is expensive (analysis + training + attack synthesis), so
// every differential test shares one.
var diffFix struct {
	once sync.Once
	fx   *DiffFixture
	err  error
}

func getFixture(t testing.TB) *DiffFixture {
	diffFix.once.Do(func() {
		diffFix.fx, diffFix.err = NewRunner().OracleFixture()
	})
	if diffFix.err != nil {
		t.Fatalf("oracle fixture: %v", diffFix.err)
	}
	return diffFix.fx
}

var diffModes = []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry}

func modePolicy(m guard.DegradedMode) guard.Policy {
	pol := guard.DefaultPolicy()
	pol.OnDegraded = m
	return pol
}

// TestDegradedModeEnumsAgree pins the value-for-value correspondence
// oraclePolicy's cast relies on, and the SlowPathRetry budget both
// pipelines hard-code.
func TestDegradedModeEnumsAgree(t *testing.T) {
	if guard.DefaultRetryMax != oracle.DefaultRetryMax {
		t.Fatalf("retry budgets diverged: guard %d, oracle %d", guard.DefaultRetryMax, oracle.DefaultRetryMax)
	}
	if uint8(guard.FailClosed) != uint8(oracle.FailClosed) ||
		uint8(guard.FailOpen) != uint8(oracle.FailOpen) ||
		uint8(guard.SlowPathRetry) != uint8(oracle.SlowPathRetry) {
		t.Fatal("DegradedMode enums diverged between guard and oracle")
	}
	if uint8(guard.HealthClean) != uint8(oracle.HealthClean) ||
		uint8(guard.HealthResynced) != uint8(oracle.HealthResynced) ||
		uint8(guard.HealthGap) != uint8(oracle.HealthGap) ||
		uint8(guard.HealthMalformed) != uint8(oracle.HealthMalformed) {
		t.Fatal("health enums diverged between guard and oracle")
	}
	if uint8(guard.VerdictClean) != uint8(oracle.VerdictClean) ||
		uint8(guard.VerdictViolation) != uint8(oracle.VerdictViolation) {
		t.Fatal("verdict enums diverged between guard and oracle")
	}
}

// TestRefGraphMatchesITC cross-checks the independently derived
// reference ITC-CFG against the production graph: identical node sets
// and identical edge sets (both directions, exhaustively).
func TestRefGraphMatchesITC(t *testing.T) {
	fx := getFixture(t)
	ig, ref := fx.An.ITC, fx.Ref
	if ig.NumNodes() != ref.NumNodes() {
		t.Fatalf("node counts diverge: itc %d, ref %d", ig.NumNodes(), ref.NumNodes())
	}
	nodes := ig.Nodes()
	for _, n := range nodes {
		if !ref.HasNode(n) {
			t.Fatalf("node %#x in production graph but not in reference", n)
		}
	}
	refEdges := make(map[[2]uint64]bool, ref.EdgeCount())
	for _, e := range ref.Edges() {
		refEdges[e] = true
		if !ig.HasEdge(e[0], e[1]) {
			t.Errorf("edge %#x -> %#x in reference but not in production graph", e[0], e[1])
		}
	}
	for _, s := range nodes {
		for _, d := range nodes {
			if ig.HasEdge(s, d) && !refEdges[[2]uint64{s, d}] {
				t.Errorf("edge %#x -> %#x in production graph but not in reference", s, d)
			}
		}
	}
}

// TestDifferentialBenign runs the clean workload under every degraded
// mode: the pipelines must agree on every check and the process must
// survive.
func TestDifferentialBenign(t *testing.T) {
	fx := getFixture(t)
	for _, m := range diffModes {
		out, err := diffProtectedRun(fx, fx.Benign, modePolicy(m), nil)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(out.Results) == 0 {
			t.Fatalf("%v: no endpoint checks ran", m)
		}
		if !out.Exited || out.Killed {
			t.Fatalf("%v: benign run did not exit cleanly (exited=%v killed=%v)", m, out.Exited, out.Killed)
		}
		for _, d := range out.Divergences {
			t.Errorf("%v: %s", m, d)
		}
	}
}

// TestDifferentialAttacks runs the ROP and SROP payloads under every
// degraded mode: both pipelines must agree and the guard must kill.
func TestDifferentialAttacks(t *testing.T) {
	fx := getFixture(t)
	for _, m := range diffModes {
		for name, input := range map[string][]byte{"rop": fx.ROP, "srop": fx.SROP} {
			out, err := diffProtectedRun(fx, input, modePolicy(m), nil)
			if err != nil {
				t.Fatalf("%v/%s: %v", m, name, err)
			}
			if !out.GuardViolation || !out.Killed {
				t.Errorf("%v/%s: attack not detected (violation=%v killed=%v)", m, name, out.GuardViolation, out.Killed)
			}
			for _, d := range out.Divergences {
				t.Errorf("%v/%s: %s", m, name, d)
			}
		}
	}
}

// TestDifferentialFaulted sweeps seeded fault plans (trace loss,
// corruption, stalls) across modes and workload classes: whatever the
// damage, the two pipelines must resolve it identically.
func TestDifferentialFaulted(t *testing.T) {
	fx := getFixture(t)
	for seed := int64(0); seed < 18; seed++ {
		m := diffModes[seed%3]
		input := fx.Benign
		if seed%2 == 1 {
			input = fx.ROP
		}
		out, err := diffProtectedRun(fx, input, modePolicy(m), faults.FromSeed(seed))
		if err != nil {
			t.Fatalf("seed %d %v: %v", seed, m, err)
		}
		for _, d := range out.Divergences {
			t.Errorf("seed %d %v: %s", seed, m, d)
		}
	}
}

// dumpFailure shrinks a failing trace and dumps a replayable artifact,
// reporting the replay command.
func dumpFailure(t *testing.T, art *SeedArtifact, raw []byte, fails func([]byte) bool) {
	t.Helper()
	min := ShrinkTrace(raw, fails)
	art.TraceHex = hex.EncodeToString(min)
	path, err := DumpSeedArtifact(art)
	if err != nil {
		t.Errorf("property %s failed; artifact dump also failed: %v", art.Property, err)
		return
	}
	t.Errorf("property %s failed (trace minimized %d -> %d bytes); replay with: go test ./internal/harness -run TestOracleReplay -seedfile=%s",
		art.Property, len(raw), len(min), path)
}

// propInjectedEdge checks property (a) for one (pick, chunks, mode)
// point: both pipelines agree on the mutated stream, and returns whether
// the injection was detected as a violation.
func propInjectedEdge(t *testing.T, fx *DiffFixture, raw []byte, chunks int, m guard.DegradedMode, seed int64) (detected bool) {
	t.Helper()
	out, err := diffRawStream(fx, modePolicy(m), raw, chunks, len(raw))
	if err != nil {
		t.Fatalf("injected-edge replay: %v", err)
	}
	if len(out.Divergences) > 0 {
		for _, d := range out.Divergences {
			t.Errorf("injected-edge %v: %s", m, d)
		}
		dumpFailure(t, &SeedArtifact{Property: "injected-edge", Seed: seed, Mode: int(m), Chunks: chunks}, raw,
			func(b []byte) bool {
				o, e := diffRawStream(fx, modePolicy(m), b, chunks, len(b))
				return e == nil && len(o.Divergences) > 0
			})
	}
	return out.GuardViolation
}

// TestPropertyInjectedEdge: retargeting one TIP of a benign trace at a
// non-CFG address flips the verdict to violation, identically in both
// pipelines, for every pick position in the checked window.
func TestPropertyInjectedEdge(t *testing.T) {
	fx := getFixture(t)
	jop := jopTarget(fx)
	detected := 0
	for pick := 1; pick <= 8; pick++ {
		raw, ok := injectEdge(fx.BenignTrace, pick, jop)
		if !ok {
			t.Fatalf("injectEdge failed at pick %d", pick)
		}
		if propInjectedEdge(t, fx, raw, 1+pick%4, diffModes[pick%3], int64(pick)) {
			detected++
		}
	}
	if detected == 0 {
		t.Error("no injected edge was detected as a violation by any pick")
	}
}

// TestPropertyRoundTrip: the captured production trace re-serializes
// byte-identically through the oracle grammar (property b).
func TestPropertyRoundTrip(t *testing.T) {
	fx := getFixture(t)
	pkts, consumed, err := oracle.ParsePackets(fx.BenignTrace)
	if err != nil {
		t.Fatalf("parse of production trace: %v", err)
	}
	if consumed != len(fx.BenignTrace) {
		t.Fatalf("parse consumed %d of %d production bytes", consumed, len(fx.BenignTrace))
	}
	got := oracle.Serialize(pkts)
	if len(got) != len(fx.BenignTrace) {
		t.Fatalf("round trip changed length: %d -> %d", len(fx.BenignTrace), len(got))
	}
	for i := range got {
		if got[i] != fx.BenignTrace[i] {
			t.Fatalf("round trip diverged at byte %d: %#x -> %#x", i, fx.BenignTrace[i], got[i])
		}
	}
}

// TestPropertyPSBTruncation: any prefix truncation at a PSB boundary
// yields a resynced-or-clean stream — never malformed — and both
// pipelines agree on it (property c).
func TestPropertyPSBTruncation(t *testing.T) {
	fx := getFixture(t)
	pts := psbOffsets(fx.BenignTrace)
	if len(pts) == 0 {
		t.Fatal("production trace holds no PSB")
	}
	step := 1
	if len(pts) > 8 {
		step = len(pts) / 8
	}
	for i := 0; i < len(pts); i += step {
		raw := fx.BenignTrace[pts[i]:]
		m := diffModes[i%3]
		chunks := 1 + i%5
		out, err := diffRawStream(fx, modePolicy(m), raw, chunks, guard.DefaultToPARegion)
		if err != nil {
			t.Fatalf("psb %d: %v", i, err)
		}
		bad := len(out.Divergences) > 0
		for _, r := range out.Results {
			if r.Health == guard.HealthMalformed {
				t.Errorf("psb %d %v: truncation at a sync point classified malformed", i, m)
				bad = true
			}
		}
		for _, d := range out.Divergences {
			t.Errorf("psb %d %v: %s", i, m, d)
		}
		if bad {
			dumpFailure(t, &SeedArtifact{Property: "psb-truncation", Seed: int64(i), Mode: int(m), Chunks: chunks}, raw,
				func(b []byte) bool {
					o, e := diffRawStream(fx, modePolicy(m), b, chunks, guard.DefaultToPARegion)
					if e != nil {
						return false
					}
					if len(o.Divergences) > 0 {
						return true
					}
					for _, r := range o.Results {
						if r.Health == guard.HealthMalformed {
							return true
						}
					}
					return false
				})
		}
	}
}

// warmVerdicts replays the benign trace with a high credit bar (forcing
// slow paths) and returns the per-check verdict sequence; prior
// pipelines, when given, pre-warm the approval stores.
func warmVerdicts(t *testing.T, fx *DiffFixture, chunks int, prevG *guard.Guard, prevO *oracle.Oracle) ([]guard.Verdict, *guard.Guard, *oracle.Oracle) {
	t.Helper()
	pol := guard.DefaultPolicy()
	g, o, topa, err := newDiffPair(fx, pol, len(fx.BenignTrace))
	if err != nil {
		t.Fatal(err)
	}
	if prevG != nil {
		g.ShareApprovals(prevG.Approvals())
		o.AdoptApprovals(prevO)
	}
	out, err := replayStream(g, o, topa, fx.BenignTrace, chunks)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range out.Divergences {
		t.Errorf("warm-cache: %s", d)
	}
	verdicts := make([]guard.Verdict, len(out.Results))
	for i, r := range out.Results {
		verdicts[i] = r.Verdict
	}
	return verdicts, g, o
}

// newUnderTrainedFixture trains both graphs on only the first third of
// the very trace the tests replay: the run's tail then exercises
// legal-but-uncredited edges — the population slow-path approvals exist
// for.
func newUnderTrainedFixture() (*DiffFixture, error) {
	r := NewRunner()
	an, err := r.Analyze(apps.Vulnd())
	if err != nil {
		return nil, err
	}
	benign := an.App.MakeInput(r.Scale, r.Seed)
	raw, err := r.traceBytes(an.App, benign)
	if err != nil {
		return nil, err
	}
	cut := len(raw) / 3
	if err := observeTrace(an.ITC, raw[:cut]); err != nil { // truncated tails stop cleanly
		return nil, err
	}
	ref := oracle.NewRef(an.OCFG)
	if err := ref.ObserveTrace(raw[:cut]); err != nil {
		return nil, err
	}
	an.ITC.RebuildCache()
	ref.Rebuild()
	return &DiffFixture{An: an, Ref: ref, Benign: benign, BenignTrace: raw}, nil
}

func underTrainedFixture(t *testing.T) *DiffFixture {
	t.Helper()
	fx, err := newUnderTrainedFixture()
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// TestPropertyWarmApprovalCache: a warm approval cache may convert slow
// paths into fast paths but never changes a verdict, and both pipelines
// agree throughout (property d).
func TestPropertyWarmApprovalCache(t *testing.T) {
	fx := underTrainedFixture(t)
	const chunks = 6
	cold, g1, o1 := warmVerdicts(t, fx, chunks, nil, nil)
	if g1.Approvals().Len() == 0 {
		t.Fatal("cold run approved no edges; the property would be vacuous")
	}
	warm, _, _ := warmVerdicts(t, fx, chunks, g1, o1)
	if len(cold) != len(warm) {
		t.Fatalf("check counts diverge: cold %d, warm %d", len(cold), len(warm))
	}
	for i := range cold {
		if cold[i] != warm[i] {
			t.Errorf("check %d: cold verdict %v, warm verdict %v", i, cold[i], warm[i])
		}
	}
}

// TestOracleSoakShort is a scaled-down version of the nightly
// `make oracle-soak` acceptance run.
func TestOracleSoakShort(t *testing.T) {
	n := 45
	if testing.Short() {
		n = 12
	}
	rows, err := NewRunner().OracleSoak(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		t.Logf("%s", row)
		if row.DivergenceCount > 0 || row.Panics > 0 || row.Errors > 0 {
			t.Errorf("%v: %d divergences, %d panics, %d errors; samples: %v",
				row.Mode, row.DivergenceCount, row.Panics, row.Errors, row.Samples)
		}
		if row.Mode != guard.FailOpen && row.Detected != row.Attacks {
			t.Errorf("%v: only %d of %d attacks detected", row.Mode, row.Detected, row.Attacks)
		}
	}
}

// TestSoakCellsCovered: within the first 96 seeds the soak runs every
// (mode, class) cell both with and without the async pipeline, and for
// each of them both values of the benign/hijacked bit v%2; the async
// choice depends on neither the mode nor the class.
func TestSoakCellsCovered(t *testing.T) {
	type cell struct {
		mode, class, hijack int
		async               bool
	}
	seen := map[cell]int{}
	for seed := 0; seed < 96; seed++ {
		c := soakCellOf(seed)
		if c.mode != seed%3 || c.class < 0 || c.class >= 8 {
			t.Fatalf("seed %d: cell %+v out of range", seed, c)
		}
		seen[cell{c.mode, c.class, c.v % 2, c.async}]++
	}
	for mode := 0; mode < 3; mode++ {
		for class := 0; class < 8; class++ {
			for hijack := 0; hijack < 2; hijack++ {
				for _, async := range []bool{false, true} {
					if n := seen[cell{mode, class, hijack, async}]; n != 1 {
						t.Errorf("mode %d class %d v%%2=%d async=%v: %d of the first 96 seeds, want 1", mode, class, hijack, async, n)
					}
				}
			}
		}
	}
}

// TestOracleSoakReproducible: an oracle soak is a function of its seeds.
// Two runs print identical rows apart from WorkerFaults, whose async
// worker draws follow goroutine scheduling. Nine seeds reach the
// chaos-faulted class, seeds 6 to 8 of it, all with the async pipeline.
func TestOracleSoakReproducible(t *testing.T) {
	const n = 9
	var runs [2][]string
	faulted := uint64(0)
	for i := range runs {
		rows, err := NewRunner().OracleSoak(n)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			faulted += row.Faults
			row.WorkerFaults = 0
			runs[i] = append(runs[i], row.String())
		}
	}
	if faulted == 0 {
		t.Fatal("no soak seed injected a stream fault")
	}
	if !reflect.DeepEqual(runs[0], runs[1]) {
		t.Fatalf("oracle soak rows differ between runs:\n%s\n%s", strings.Join(runs[0], "\n"), strings.Join(runs[1], "\n"))
	}
}

// TestOracleReplay re-runs a dumped property-failure artifact
// bit-for-bit. Without -seedfile it is a no-op; with one it fails while
// the dumped bug still reproduces.
func TestOracleReplay(t *testing.T) {
	if *seedFile == "" {
		t.Skip("no -seedfile given")
	}
	art, err := LoadSeedArtifact(*seedFile)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := art.Trace()
	if err != nil {
		t.Fatalf("artifact trace: %v", err)
	}
	fx := getFixture(t)
	m := guard.DegradedMode(art.Mode)
	switch art.Property {
	case "injected-edge", "stream-diff":
		out, err := diffRawStream(fx, modePolicy(m), raw, art.Chunks, len(raw))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range out.Divergences {
			t.Errorf("replay: %s", d)
		}
	case "psb-truncation":
		out, err := diffRawStream(fx, modePolicy(m), raw, art.Chunks, guard.DefaultToPARegion)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range out.Results {
			if r.Health == guard.HealthMalformed {
				t.Error("replay: malformed health on a PSB-aligned truncation")
			}
		}
		for _, d := range out.Divergences {
			t.Errorf("replay: %s", d)
		}
	case "fork-inherit":
		ffx, fart := forkFixture(t)
		// The dispatch flavor is not recorded; replay both — the dumped
		// bug reproduces in at least one.
		for _, useArt := range []bool{false, true} {
			p := forkPoint{pol: modePolicy(m), chunks: art.Chunks, forkAt: art.Pick, artifact: useArt}
			divs, _, err := runForkConformance(ffx, fart, p, raw)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range divs {
				t.Errorf("replay (artifact=%v): %s", useArt, d)
			}
		}
	case "demux-roundtrip":
		mfx, mrop := mcFixture(t)
		// The point decodes from the seed; the (possibly shrunk) artifact
		// bytes replace the workload input.
		p := mcPointFor(art.Seed)
		divs, _, err := runMCConformance(mfx, p, raw, mcNoise(mfx, p, art.Seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range divs {
			t.Errorf("replay: %s", d)
		}
		_ = mrop
	default:
		t.Fatalf("unknown property %q in artifact", art.Property)
	}
}

// TestShrinkTraceMinimizes exercises the shrinker on a synthetic
// predicate: the minimized trace must keep failing and be packet-aligned
// smaller than the input.
func TestShrinkTraceMinimizes(t *testing.T) {
	fx := getFixture(t)
	jop := jopTarget(fx)
	raw, ok := injectEdge(fx.BenignTrace, 2, jop)
	if !ok {
		t.Fatal("injectEdge failed")
	}
	fails := func(b []byte) bool {
		o, err := diffRawStream(fx, modePolicy(guard.FailClosed), b, 1, len(b)+guard.DefaultToPARegion)
		return err == nil && o.GuardViolation
	}
	if !fails(raw) {
		t.Skip("injection at pick 2 not detected; covered by TestPropertyInjectedEdge")
	}
	min := ShrinkTrace(raw, fails)
	if !fails(min) {
		t.Fatal("shrunk trace no longer fails")
	}
	if len(min) > len(raw) {
		t.Fatalf("shrinker grew the trace: %d -> %d", len(raw), len(min))
	}
	t.Logf("shrunk %d -> %d bytes", len(raw), len(min))
}

// FuzzHybridVsOracle feeds arbitrary bytes through both pipelines as a
// raw stream replay: they must never panic and never disagree.
func FuzzHybridVsOracle(f *testing.F) {
	fx := getFixture(f)
	psb := []byte{0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82, 0x02, 0x82}
	f.Add([]byte{}, uint8(0), uint8(1))
	f.Add(psb, uint8(1), uint8(2))
	f.Add(append(append([]byte{}, psb...), 0x02, 0xF3), uint8(2), uint8(1)) // OVF after sync
	f.Add(append(append([]byte{}, psb...), 0xFF, 0x00, 0x6D), uint8(0), uint8(3))
	head := fx.BenignTrace
	if len(head) > 2048 {
		head = head[:2048]
	}
	f.Add(append([]byte{}, head...), uint8(1), uint8(4))
	if raw, ok := injectEdge(fx.BenignTrace, 3, jopTarget(fx)); ok {
		tail := raw
		if len(tail) > 2048 {
			tail = tail[len(tail)-2048:]
		}
		f.Add(append([]byte{}, tail...), uint8(2), uint8(2))
	}
	// Context-switch markers at region seams: the bare PIP+MODE pair the
	// multicore world writes between slices — whole, truncated mid-CR3
	// (a slice-boundary fault), and spliced into a benign stream where
	// the replay chunking will cut it.
	mark := []byte{0x02, 0x43, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x00, 0x02, 0x99, 0x01}
	f.Add(append(append([]byte{}, psb...), mark...), uint8(0), uint8(2))
	f.Add(append(append([]byte{}, psb...), mark[:6]...), uint8(1), uint8(3))
	if len(fx.BenignTrace) > 1024 {
		spliced := append([]byte{}, fx.BenignTrace[:512]...)
		spliced = append(spliced, mark...)
		spliced = append(spliced, fx.BenignTrace[512:1024]...)
		f.Add(spliced, uint8(2), uint8(5))
	}
	f.Fuzz(func(t *testing.T, raw []byte, mode, chunks uint8) {
		m := diffModes[int(mode)%len(diffModes)]
		out, err := diffRawStream(fx, modePolicy(m), raw, 1+int(chunks)%6, guard.DefaultToPARegion)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Divergences) > 0 {
			art := &SeedArtifact{Property: "stream-diff", Mode: int(m), Chunks: 1 + int(chunks)%6,
				TraceHex: hex.EncodeToString(raw)}
			path, _ := DumpSeedArtifact(art)
			t.Fatalf("pipelines diverged (artifact %s): %v", path, out.Divergences)
		}
	})
}

var _ = fmt.Sprintf // keep fmt for ad-hoc debugging edits

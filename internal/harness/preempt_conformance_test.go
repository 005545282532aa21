package harness

// The demux round-trip conformance property (DESIGN.md §11): running a
// process preempted across shared multi-core trace units — its stream
// interleaved with noise neighbors, split back out by the PIP/CR3 demux —
// must be observationally identical to tracing that process alone with a
// dedicated CR3-filtered unit: byte-identical reconstructed windows,
// bit-identical per-check verdicts, and bit-identical statistics. The
// multicore leg is additionally compared against per-thread reference
// oracles at every endpoint, so the solo leg is transitively
// oracle-conformant too. Failures shrink through the delta debugger and
// dump a TestOracleReplay artifact like every other property here.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"flowguard/internal/attack"
	"flowguard/internal/guard"
)

// The undertrained fixture makes the property bite: the workload tail
// crosses legal-but-uncredited edges, so both legs must take identical
// slow paths and bank identical approvals while being preempted
// differently.
var mcFix struct {
	once sync.Once
	fx   *DiffFixture
	rop  []byte
	err  error
}

func mcFixture(t testing.TB) (*DiffFixture, []byte) {
	mcFix.once.Do(func() {
		mcFix.fx, mcFix.err = newUnderTrainedFixture()
		if mcFix.err != nil {
			return
		}
		as, err := mcFix.fx.An.App.Load()
		if err != nil {
			mcFix.err = err
			return
		}
		mcFix.rop, mcFix.err = attack.BuildROPWrite(as)
	})
	if mcFix.err != nil {
		t.Fatalf("multicore fixture: %v", mcFix.err)
	}
	return mcFix.fx, mcFix.rop
}

// mcQuanta are the slice lengths the property sweeps: short enough that
// windows are split across many slices, long enough that runs terminate
// quickly.
var mcQuanta = []uint64{60, 120, 250, 400}

// mcPoint is one seed's decoded parameter set.
type mcPoint struct {
	pol     guard.Policy
	cores   int    // shared trace units
	quantum uint64 // scheduler slice, in instructions
	noise   int    // unprotected neighbors interleaved on the same cores
	attack  bool   // workload is the ROP payload, not generated traffic
	scale   int    // benign workload size (App.MakeInput)
}

func mcPointFor(seed int64) mcPoint {
	rng := rand.New(rand.NewSource(seed))
	p := mcPoint{pol: modePolicy(diffModes[rng.Intn(len(diffModes))])}
	p.pol.Async = rng.Intn(2) == 1
	p.cores = 1 + rng.Intn(3)
	p.quantum = mcQuanta[rng.Intn(len(mcQuanta))]
	p.noise = rng.Intn(3)
	p.attack = rng.Intn(4) == 0
	p.scale = 6 + rng.Intn(24)
	return p
}

// mcInput derives the seed's workload bytes.
func mcInput(fx *DiffFixture, rop []byte, p mcPoint, seed int64) []byte {
	if p.attack {
		return rop
	}
	return fx.An.App.MakeInput(p.scale, seed)
}

// mcNoise derives the neighbor workloads (always benign: neighbors are
// unprotected scenery whose only job is to interleave trace).
func mcNoise(fx *DiffFixture, p mcPoint, seed int64) [][]byte {
	var out [][]byte
	for i := 0; i < p.noise; i++ {
		out = append(out, fx.An.App.MakeInput(4+p.scale/2, seed+1000+int64(i)))
	}
	return out
}

// mcAsyncExempt are the asynchronous-pipeline scheduling counters: the
// demuxed leg's sink receives span-batched writes where the solo tracer
// writes per packet, so region-full capture timing (never verdicts)
// legitimately differs.
var mcAsyncExempt = map[string]bool{
	"AsyncWindows": true, "AsyncMaxLag": true, "WorkerCrashes": true,
}

// compareMCResults demands bit-identical solo/multicore results; the
// deterministic cycle meters are included for synchronous runs (async
// checks fold drained-pipeline work into the meters, so there only the
// decision fields must match).
func compareMCResults(check int, s, m guard.Result, cycles bool) (divs []string) {
	add := func(field string, sv, mv any) {
		divs = append(divs, fmt.Sprintf("check %d %s: solo=%v multicore=%v", check, field, sv, mv))
	}
	if s.Verdict != m.Verdict {
		add("verdict", s.Verdict, m.Verdict)
	}
	if s.Reason != m.Reason {
		add("reason", s.Reason, m.Reason)
	}
	if s.TIPs != m.TIPs {
		add("tips", s.TIPs, m.TIPs)
	}
	if s.LowCredit != m.LowCredit {
		add("low-credit", s.LowCredit, m.LowCredit)
	}
	if s.UsedSlowPath != m.UsedSlowPath {
		add("used-slow-path", s.UsedSlowPath, m.UsedSlowPath)
	}
	if s.Health != m.Health {
		add("health", s.Health, m.Health)
	}
	if s.Degraded != m.Degraded {
		add("degraded", s.Degraded, m.Degraded)
	}
	if s.Retries != m.Retries {
		add("retries", s.Retries, m.Retries)
	}
	if cycles && (s.DecodeCycles != m.DecodeCycles || s.CheckCycles != m.CheckCycles ||
		s.OtherCycles != m.OtherCycles || s.SlowCycles != m.SlowCycles) {
		add("cycles", [4]uint64{s.DecodeCycles, s.CheckCycles, s.OtherCycles, s.SlowCycles},
			[4]uint64{m.DecodeCycles, m.CheckCycles, m.OtherCycles, m.SlowCycles})
	}
	return divs
}

// compareMCStats diffs every guard.Stats counter between the solo and
// multicore legs except the async scheduling counters (and, for async
// runs, the cycle meters — same reasoning as compareMCResults).
// Stats.Fields walks the struct declaration, so the sweep stays
// exhaustive as counters are added.
func compareMCStats(s, m *guard.Stats, async bool) (divs []string) {
	cycles := map[string]bool{
		"DecodeCycles": true, "CheckCycles": true, "OtherCycles": true, "SlowCycles": true,
	}
	sf, mf := s.Fields(), m.Fields()
	for i := range sf {
		if mcAsyncExempt[sf[i].Name] || (async && cycles[sf[i].Name]) {
			continue
		}
		if sf[i].Value != mf[i].Value {
			divs = append(divs, fmt.Sprintf("stats %s: solo=%d multicore=%d", sf[i].Name, sf[i].Value, mf[i].Value))
		}
	}
	return divs
}

// runMCConformance replays one seed point through both worlds and
// returns every divergence: multicore-vs-oracle (computed inside the
// multicore leg), solo-vs-multicore result and statistics equality,
// stream byte identity, exit equivalence, and transport cleanliness (a
// fault-free schedule must never resync or lose attribution).
func runMCConformance(fx *DiffFixture, p mcPoint, input []byte, noise [][]byte) ([]string, *MCOutcome, error) {
	solo, err := soloConformanceRun(fx, input, p.pol)
	if err != nil {
		return nil, nil, err
	}
	mc, err := diffMulticoreRun(fx, input, p.pol, p.cores, p.quantum, noise)
	if err != nil {
		return nil, nil, err
	}
	divs := append([]string(nil), mc.Divergences...)
	if len(solo.Results) != len(mc.Results) {
		divs = append(divs, fmt.Sprintf("check counts: solo=%d multicore=%d", len(solo.Results), len(mc.Results)))
	} else {
		for i := range solo.Results {
			divs = append(divs, compareMCResults(i+1, solo.Results[i], mc.Results[i], !p.pol.Async)...)
		}
	}
	divs = append(divs, compareMCStats(&solo.Guard.Stats, &mc.Guard.Stats, p.pol.Async)...)
	if solo.Killed != mc.Killed || solo.Exited != mc.Exited {
		divs = append(divs, fmt.Sprintf("exit: solo killed=%v exited=%v, multicore killed=%v exited=%v",
			solo.Killed, solo.Exited, mc.Killed, mc.Exited))
	}
	st, mt := solo.Guard.Tracer.Out, mc.Guard.Tracer.Out
	if st.TotalWritten() != mt.TotalWritten() {
		divs = append(divs, fmt.Sprintf("stream length: solo=%d multicore=%d", st.TotalWritten(), mt.TotalWritten()))
	} else if !bytes.Equal(st.Snapshot(), mt.Snapshot()) {
		divs = append(divs, "stream bytes: demuxed window differs from solo capture")
	}
	if mc.Demux != nil && (mc.Demux.Resyncs != 0 || mc.Demux.UnmarkedLosses != 0) {
		divs = append(divs, fmt.Sprintf("transport: fault-free run demuxed with Resyncs=%d UnmarkedLosses=%d",
			mc.Demux.Resyncs, mc.Demux.UnmarkedLosses))
	}
	return divs, mc, nil
}

// TestPropertyDemuxRoundTrip sweeps seeded (mode, async, cores, quantum,
// noise, workload) combinations of the round-trip contract.
func TestPropertyDemuxRoundTrip(t *testing.T) {
	fx, rop := mcFixture(t)
	seeds := *propSeeds
	detected, slow, preempted := 0, 0, 0
	for seed := int64(0); seed < int64(seeds); seed++ {
		p := mcPointFor(seed)
		input := mcInput(fx, rop, p, seed)
		noise := mcNoise(fx, p, seed)
		divs, mc, err := runMCConformance(fx, p, input, noise)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if p.attack && mc.GuardViolation {
			detected++
		}
		if mc.Guard.Stats.SlowChecks > 0 {
			slow++
		}
		if p.noise > 0 || p.cores > 1 {
			preempted++
		}
		if len(divs) > 0 {
			for _, d := range divs {
				t.Errorf("seed %d (cores=%d quantum=%d noise=%d async=%v attack=%v): %s",
					seed, p.cores, p.quantum, p.noise, p.pol.Async, p.attack, d)
			}
			dumpFailure(t, &SeedArtifact{Property: "demux-roundtrip", Seed: seed,
				Mode: int(p.pol.OnDegraded), Chunks: p.cores, Pick: int(p.quantum)}, input,
				func(b []byte) bool {
					d2, _, e := runMCConformance(fx, p, b, noise)
					return e == nil && len(d2) > 0
				})
			return // one minimized artifact is enough; it replays the bug
		}
	}
	if detected == 0 {
		t.Error("no attack seed was detected under preemption; the security half never ran")
	}
	if slow == 0 {
		t.Error("no seed took a slow path; the approval machinery was never stressed")
	}
	if preempted == 0 {
		t.Error("no seed actually shared cores; the property was vacuous")
	}
}

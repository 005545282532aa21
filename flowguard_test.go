package flowguard_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"flowguard"
)

func TestWorkloadRegistry(t *testing.T) {
	names := flowguard.Workloads()
	if len(names) != 21 { // 4 servers + 4 utilities + 12 spec + vulnd
		t.Fatalf("workloads = %d (%v), want 21", len(names), names)
	}
	for _, n := range names {
		w, err := flowguard.LoadWorkload(n)
		if err != nil {
			t.Fatalf("LoadWorkload(%s): %v", n, err)
		}
		if w.Name() != n || w.Category() == "" {
			t.Errorf("workload %s: name=%s category=%q", n, w.Name(), w.Category())
		}
		if len(w.Input(2, 1)) == 0 {
			t.Errorf("workload %s: empty input", n)
		}
	}
	if _, err := flowguard.LoadWorkload("no-such-app"); err == nil {
		t.Fatal("LoadWorkload accepted an unknown name")
	}
}

func TestAnalyzeTrainRunPipeline(t *testing.T) {
	w, err := flowguard.LoadWorkload("nginx")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	st := sys.Stats()
	if st.Functions == 0 || st.BasicBlocks == 0 || st.ITCNodes == 0 || st.ITCEdges == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.ITCAIA < st.OCFGAIA {
		t.Errorf("no AIA derogation: ITC %.2f < O-CFG %.2f", st.ITCAIA, st.OCFGAIA)
	}
	if st.CredRatio != 0 {
		t.Errorf("untrained cred ratio = %v, want 0", st.CredRatio)
	}

	if err := sys.TrainGenerated(5, 15, 1); err != nil {
		t.Fatal(err)
	}
	trained := sys.Stats()
	if trained.CredRatio <= 0 {
		t.Fatal("training labeled no edges")
	}
	if trained.ITCAIAWithTNT <= 0 || trained.ITCAIAWithTNT >= trained.ITCAIA {
		t.Errorf("TNT AIA %.2f not below plain %.2f", trained.ITCAIAWithTNT, trained.ITCAIA)
	}

	out, err := sys.Run(w.Input(15, 9))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Exited || out.Killed {
		t.Fatalf("benign run: %+v", out)
	}
	if len(out.Violations) != 0 {
		t.Fatalf("false positives: %v", out.Violations)
	}
	if out.Checks == 0 {
		t.Fatal("no endpoint checks")
	}
	if out.OverheadPct <= 0 || out.OverheadPct > 30 {
		t.Errorf("overhead %.2f%%, want small positive", out.OverheadPct)
	}
	sum := out.Parts.Trace + out.Parts.Decode + out.Parts.Check + out.Parts.Other
	if diff := out.OverheadPct - sum; diff > 0.01 || diff < -0.01 {
		t.Errorf("breakdown %.3f does not sum to total %.3f", sum, out.OverheadPct)
	}

	// Functional equivalence: protection must not change the output.
	plain, err := flowguard.RunUnprotected(w, w.Input(15, 9))
	if err != nil {
		t.Fatal(err)
	}
	if string(plain) != string(out.Stdout) {
		t.Error("protected output differs from unprotected output")
	}
}

func TestAttackPipeline(t *testing.T) {
	w, err := flowguard.LoadWorkload("vulnd")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(5, 15, 1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []flowguard.AttackKind{
		flowguard.AttackROP, flowguard.AttackSROP,
		flowguard.AttackRet2Lib, flowguard.AttackHistoryFlush,
	} {
		payload, err := flowguard.AttackPayload(kind, w)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		out, err := sys.Run(payload)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !out.Killed {
			t.Errorf("%s: not killed", kind)
		}
		if len(out.Violations) == 0 || !strings.Contains(out.Violations[0], "CFI violation") {
			t.Errorf("%s: missing violation report: %v", kind, out.Violations)
		}
	}
	if _, err := flowguard.AttackPayload("nope", w); err == nil {
		t.Fatal("AttackPayload accepted an unknown kind")
	}
}

func TestSaveLoadTrained(t *testing.T) {
	w, err := flowguard.LoadWorkload("nginx")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(4, 10, 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sys.SaveTrained(&buf); err != nil {
		t.Fatal(err)
	}

	fresh, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Stats().CredRatio != 0 {
		t.Fatal("fresh system already trained")
	}
	if err := fresh.LoadTrained(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Stats().CredRatio, sys.Stats().CredRatio; got != want {
		t.Fatalf("restored cred ratio %v, want %v", got, want)
	}
	out, err := fresh.Run(w.Input(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Exited || len(out.Violations) != 0 {
		t.Fatalf("run with restored graph: %+v", out)
	}

	// A graph from different binaries is rejected.
	other, err := flowguard.LoadWorkload("vsftpd")
	if err != nil {
		t.Fatal(err)
	}
	osys, err := flowguard.Analyze(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := osys.LoadTrained(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("LoadTrained accepted a graph from different binaries")
	}
}

func TestEndpointPruningAttackKind(t *testing.T) {
	w, err := flowguard.LoadWorkload("vulnd")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(4, 15, 1); err != nil {
		t.Fatal(err)
	}
	payload, err := flowguard.AttackPayload(flowguard.AttackEndpointPruning, w)
	if err != nil {
		t.Fatal(err)
	}
	// Escapes the default endpoints...
	out, err := sys.Run(payload)
	if err != nil {
		t.Fatal(err)
	}
	if out.Killed {
		t.Fatalf("pruning attack killed under default policy: %v", out.Violations)
	}
	// ...but not the PMI fallback.
	pol := flowguard.DefaultPolicy()
	pol.CheckOnPMI = true
	out, err = sys.RunWithPolicy(payload, pol)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Killed || len(out.Violations) == 0 {
		t.Fatalf("PMI policy missed the pruning attack: %+v", out)
	}
	if !strings.Contains(out.Violations[0], "PMI") {
		t.Errorf("violation not PMI-labeled: %v", out.Violations[0])
	}
}

func TestTrainWithFuzzer(t *testing.T) {
	w, err := flowguard.LoadWorkload("nginx")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := sys.TrainWithFuzzer(200, [][]byte{[]byte("G /index\n"), []byte("P 64\n")})
	if err != nil {
		t.Fatal(err)
	}
	if fs.Execs < 200 || fs.CorpusSize < 2 || fs.Paths == 0 {
		t.Fatalf("fuzz stats: %+v", fs)
	}
	if sys.Stats().CredRatio <= 0 {
		t.Fatal("fuzzer training labeled nothing")
	}
}

func TestRunMulti(t *testing.T) {
	w, err := flowguard.LoadWorkload("nginx")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(5, 15, 1); err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{w.Input(12, 3), w.Input(12, 4), w.Input(12, 5), w.Input(12, 6)}
	pol := flowguard.DefaultPolicy()
	mo, err := sys.RunMulti(inputs, pol)
	if err != nil {
		t.Fatal(err)
	}
	if len(mo.Outcomes) != len(inputs) {
		t.Fatalf("outcomes = %d, want %d", len(mo.Outcomes), len(inputs))
	}
	var sum uint64
	for i, o := range mo.Outcomes {
		if !o.Exited || o.Killed {
			t.Fatalf("process %d: %+v", i, o)
		}
		if len(o.Violations) != 0 {
			t.Fatalf("process %d false positives: %v", i, o.Violations)
		}
		if o.Checks == 0 {
			t.Fatalf("process %d ran no checks", i)
		}
		sum += o.Checks
		// Interleaving processes must not change program behavior...
		plain, err := flowguard.RunUnprotected(w, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		if string(plain) != string(o.Stdout) {
			t.Errorf("process %d output differs from unprotected run", i)
		}
		// ...nor where the endpoints fall: each process checks exactly
		// as often as it does alone.
		solo, err := sys.RunWithPolicy(inputs[i], pol)
		if err != nil {
			t.Fatal(err)
		}
		if o.Checks != solo.Checks {
			t.Errorf("process %d: %d checks among siblings, %d alone", i, o.Checks, solo.Checks)
		}
	}
	if mo.Checks != sum {
		t.Fatalf("aggregate checks %d != per-process sum %d", mo.Checks, sum)
	}
	if len(mo.Violations) != 0 {
		t.Fatalf("aggregate false positives: %v", mo.Violations)
	}

	// The scheduler is a deterministic interleaving: a second run over
	// the same inputs replays every counter and every byte of output.
	again, err := sys.RunMulti(inputs, pol)
	if err != nil {
		t.Fatal(err)
	}
	counters := func(m *flowguard.MultiOutcome) [7]uint64 {
		return [7]uint64{m.Checks, m.SlowChecks, m.DegradedChecks, m.FailOpens, m.FailClosures, m.Retries, m.Shed}
	}
	if counters(mo) != counters(again) {
		t.Errorf("repeated run: counters %v, first run %v", counters(again), counters(mo))
	}
	for i := range mo.Outcomes {
		if !reflect.DeepEqual(mo.Outcomes[i], again.Outcomes[i]) {
			t.Errorf("process %d: repeated run differs:\n%+v\n%+v", i, again.Outcomes[i], mo.Outcomes[i])
		}
	}
}

func TestRunMultiDetectsAttackAmongBenign(t *testing.T) {
	w, err := flowguard.LoadWorkload("vulnd")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(5, 15, 1); err != nil {
		t.Fatal(err)
	}
	payload, err := flowguard.AttackPayload(flowguard.AttackROP, w)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{w.Input(12, 3), payload, w.Input(12, 4)}
	mo, err := sys.RunMulti(inputs, flowguard.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if !mo.Outcomes[1].Killed || len(mo.Outcomes[1].Violations) != 1 {
		t.Fatalf("attacked process: want killed with exactly one report, got %+v", mo.Outcomes[1])
	}
	if len(mo.Violations) != 1 || mo.Violations[0] != mo.Outcomes[1].Violations[0] {
		t.Fatalf("want exactly the attacked process's report, got %v", mo.Violations)
	}
	for _, i := range []int{0, 2} {
		o := mo.Outcomes[i]
		if o.Killed || len(o.Violations) != 0 {
			t.Fatalf("benign process %d harmed by sibling's attack: %+v", i, o)
		}
	}
}

func TestPolicyKnobs(t *testing.T) {
	w, _ := flowguard.LoadWorkload("nginx")
	sys, err := flowguard.Analyze(w)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.TrainGenerated(4, 10, 1); err != nil {
		t.Fatal(err)
	}
	small := flowguard.DefaultPolicy()
	small.PktCount = 10
	big := flowguard.DefaultPolicy()
	big.PktCount = 90
	outS, err := sys.RunWithPolicy(w.Input(10, 5), small)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := sys.RunWithPolicy(w.Input(10, 5), big)
	if err != nil {
		t.Fatal(err)
	}
	if outB.Parts.Check <= outS.Parts.Check {
		t.Errorf("pkt_count=90 check share %.2f%% <= pkt_count=10 %.2f%%", outB.Parts.Check, outS.Parts.Check)
	}
	hw := flowguard.DefaultPolicy()
	hw.HWDecoder = true
	outHW, err := sys.RunWithPolicy(w.Input(10, 5), hw)
	if err != nil {
		t.Fatal(err)
	}
	outSW, err := sys.RunWithPolicy(w.Input(10, 5), flowguard.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if outHW.Parts.Decode >= outSW.Parts.Decode {
		t.Errorf("HW decoder share %.3f%% >= SW %.3f%%", outHW.Parts.Decode, outSW.Parts.Decode)
	}
}

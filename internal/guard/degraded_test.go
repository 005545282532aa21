package guard

// White-box tests of the trace-health classification and the degraded-
// mode policy responses, using targeted write-fault doubles on the
// synthetic-branch window fixture. End-to-end per-mode tests against
// the real server and attacks live in degraded_modes_test.go; the chaos
// soak in internal/faults sweeps the whole space.

import (
	"errors"
	"testing"

	"flowguard/internal/trace/ipt"
)

// onceFault appends extra to the payload of exactly one tracer write.
type onceFault struct {
	extra []byte
	fired bool
}

func (f *onceFault) Corrupt(p []byte, off uint64) []byte {
	if f.fired {
		return p
	}
	f.fired = true
	return append(append([]byte(nil), p...), f.extra...)
}

var ovfBytes = []byte{0x02, 0xF3}

func TestWindowHealthResyncedOnOVF(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 4
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	for i := 0; i < 10; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, health, err := f.g.window(&f.g.main); err != nil || health != HealthClean {
		t.Fatalf("pre-fault window: health %v, err %v", health, err)
	}

	f.tr.Fault = &onceFault{extra: ovfBytes}
	f.emitTIP(f.exec) // this write carries the injected OVF
	f.emitTIP(f.exec)
	_, _, _, health, err := f.g.window(&f.g.main)
	if err != nil {
		t.Fatal(err)
	}
	if health != HealthResynced {
		t.Fatalf("post-OVF health = %v, want resynced", health)
	}
	if f.g.Stats.Overflows != 1 {
		t.Fatalf("Stats.Overflows = %d, want 1", f.g.Stats.Overflows)
	}

	// The overflow stays unresynchronized — and the health degraded —
	// until the next PSB; the default period is 2048 bytes, so a couple
	// more records do not clear it.
	f.emitTIP(f.exec)
	if _, _, _, health, _ := f.g.window(&f.g.main); health != HealthResynced {
		t.Fatalf("health before resynchronizing PSB = %v, want resynced", health)
	}

	// Crossing the PSB period resynchronizes: health returns to clean
	// with no new overflow counted. (Repeated same-target TIPs compress
	// to ~1 byte, so this spans the 2048-byte default period.)
	for i := 0; i < 3000; i++ {
		f.emitTIP(f.exec)
	}
	_, _, _, health, err = f.g.window(&f.g.main)
	if err != nil {
		t.Fatal(err)
	}
	if health != HealthClean {
		t.Fatalf("post-PSB health = %v, want clean again", health)
	}
	if f.g.Stats.Overflows != 1 {
		t.Fatalf("Stats.Overflows = %d after resync, want still 1", f.g.Stats.Overflows)
	}
}

func TestWindowHealthGapWhenWrapOutrunsSyncPoints(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 4
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	// Tiny buffer, and no recurring sync points: once the initial PSB
	// wraps away, nothing resident can be attributed.
	f.tr.Out = ipt.NewToPA(256, 256)
	f.tr.PSBPeriod = 1 << 30
	for i := 0; i < 2000; i++ {
		f.emitTIP(f.exec)
	}
	if !f.tr.Out.Wrapped() {
		t.Fatal("setup: buffer did not wrap")
	}
	tips, _, _, health, err := f.g.window(&f.g.main)
	if err != nil {
		t.Fatal(err)
	}
	if health != HealthGap {
		t.Fatalf("health = %v, want gap", health)
	}
	if len(tips) != 0 {
		t.Fatalf("gap window returned %d unattributable records", len(tips))
	}
	if f.g.Stats.Gaps != 1 {
		t.Fatalf("Stats.Gaps = %d, want 1", f.g.Stats.Gaps)
	}
}

func TestWindowHealthMalformedDropsCache(t *testing.T) {
	pol := DefaultPolicy()
	pol.PktCount = 4
	pol.RequireModuleStride = false
	f := newWindowFixture(t, pol)
	for i := 0; i < 10; i++ {
		f.emitTIP(f.exec)
	}
	if _, _, _, _, err := f.g.window(&f.g.main); err != nil {
		t.Fatal(err)
	}
	f.tr.Fault = &onceFault{extra: []byte{0x02, 0xFF}} // unknown extended opcode
	f.emitTIP(f.exec)
	_, _, _, health, err := f.g.window(&f.g.main)
	if health != HealthMalformed {
		t.Fatalf("health = %v, want malformed", health)
	}
	if !errors.Is(err, ipt.ErrMalformedTrace) {
		t.Fatalf("err = %v, want ErrMalformedTrace", err)
	}
	if f.g.Stats.Malformed != 1 {
		t.Fatalf("Stats.Malformed = %d, want 1", f.g.Stats.Malformed)
	}
	if f.g.main.win.src != nil {
		t.Fatal("poisoned window cache was retained")
	}
}

// TestCheckDegradedPolicyOnGap drives Check() itself through each
// degraded mode on an unattributable (gap) window. No graph lookups can
// run — there are no records — so the verdict isolates pure policy.
func TestCheckDegradedPolicyOnGap(t *testing.T) {
	mk := func(mode DegradedMode) *windowFixture {
		pol := DefaultPolicy()
		pol.PktCount = 4
		pol.RequireModuleStride = false
		pol.OnDegraded = mode
		f := newWindowFixture(t, pol)
		f.tr.Out = ipt.NewToPA(256, 256)
		f.tr.PSBPeriod = 1 << 30
		for i := 0; i < 2000; i++ {
			f.emitTIP(f.exec)
		}
		return f
	}

	t.Run("fail-closed", func(t *testing.T) {
		f := mk(FailClosed)
		res := f.g.Check()
		if res.Verdict != VerdictViolation || !res.Degraded || res.Health != HealthGap {
			t.Fatalf("res = %+v, want degraded gap violation", res)
		}
		if f.g.Stats.FailClosures != 1 || f.g.Stats.Violations != 1 {
			t.Fatalf("stats = %+v, want one fail-closure violation", f.g.Stats)
		}
	})
	t.Run("fail-open", func(t *testing.T) {
		f := mk(FailOpen)
		res := f.g.Check()
		if res.Verdict != VerdictClean || !res.Degraded {
			t.Fatalf("res = %+v, want degraded clean", res)
		}
		if f.g.Stats.FailOpens != 1 || f.g.Stats.Violations != 0 {
			t.Fatalf("stats = %+v, want one fail-open, no violations", f.g.Stats)
		}
	})
	t.Run("slow-path-retry", func(t *testing.T) {
		// No resident sync point survives re-snapshotting either, so the
		// retries exhaust and the check fails closed.
		f := mk(SlowPathRetry)
		res := f.g.Check()
		if res.Verdict != VerdictViolation || !res.Degraded {
			t.Fatalf("res = %+v, want retries-exhausted violation", res)
		}
		if res.Retries == 0 || f.g.Stats.Retries == 0 {
			t.Fatalf("res.Retries = %d, Stats.Retries = %d; retry attempts not counted",
				res.Retries, f.g.Stats.Retries)
		}
		if f.g.Stats.FailClosures != 1 {
			t.Fatalf("Stats.FailClosures = %d, want 1", f.g.Stats.FailClosures)
		}
	})
}

package guard

import (
	"fmt"
	"reflect"
)

// Stats accumulates across checks. Its declaration is the one list of
// counters: Merge, Fields and the differential oracle's comparison walk
// the fields by reflection, so a new uint64 counter is merged and
// reported without a second edit. Every field is a uint64 counter that
// merges by sum, except high-water marks, tagged `merge:"max"`.
type Stats struct {
	Checks       uint64
	SlowChecks   uint64
	Violations   uint64
	TIPsChecked  uint64
	HighEdges    uint64 // runtime high-credit edge observations
	LowEdges     uint64 // runtime low-credit / sig-mismatch observations
	DecodeCycles uint64 // fast packet-grammar scanning
	CheckCycles  uint64 // ITC-CFG searches + credit assessment
	OtherCycles  uint64 // interception and bookkeeping
	SlowCycles   uint64 // instruction-flow decoding + precise checks
	BytesScanned uint64
	CacheHits    uint64

	// Degraded-mode accounting (§7.1.2 worst cases).
	Resyncs        uint64 // window cache rebuilt after a wrap outran it
	Overflows      uint64 // OVF packets decoded: trace bytes lost upstream
	Gaps           uint64 // checks over a wrapped buffer holding no sync point
	Malformed      uint64 // windows rejected for grammar-level corruption
	DegradedChecks uint64 // checks resolved under Policy.OnDegraded
	FailOpens      uint64 // degraded checks passed open (unverified)
	FailClosures   uint64 // degraded checks failed closed
	Retries        uint64 // SlowPathRetry recovery attempts
	Shed           uint64 // checks FleetPool shed for per-tenant fairness (the only shed)

	// Asynchronous-pipeline accounting (Policy.Async, DESIGN.md §9).
	AsyncWindows uint64 // region-full captures handed to the worker pool
	// AsyncMaxLag is the high-water mark of the capture backlog: captures
	// no worker has drained yet and no check has covered yet (a drain
	// pops its capture, a check drops the rest). How deep it gets
	// depends on when the workers ran, so it follows goroutine
	// scheduling, not the seed (ROADMAP item 5).
	AsyncMaxLag uint64 `merge:"max"`
	// BackpressureStalls and WatchdogSheds are always zero: the pipeline
	// has no producer stall and no watchdog, because the gate decodes
	// any backlog itself (DESIGN.md §9). They stay because perfbench
	// reports them under the names its artifacts already carry.
	BackpressureStalls uint64
	WatchdogSheds      uint64
	WorkerCrashes      uint64 // contained async-worker crashes (injected or real)

	// Fleet accounting (DESIGN.md §10).
	ForkInherits uint64 // guards created by fork inheritance (ForkGuard)

	// Preemptive-world accounting (DESIGN.md §11).
	StreamLosses uint64 // demux-reported span losses folded into health
}

// statsMaxMerged flags, per Stats field in declaration order, the
// high-water marks Merge combines by maximum.
var statsMaxMerged = func() []bool {
	t := reflect.TypeOf(Stats{})
	m := make([]bool, t.NumField())
	for i := range m {
		m[i] = t.Field(i).Tag.Get("merge") == "max"
	}
	return m
}()

// FastCycles returns the accumulated fast-path cost (decode + check).
func (s *Stats) FastCycles() uint64 { return s.DecodeCycles + s.CheckCycles }

// Merge adds o into s — the deterministic aggregation step after a
// parallel multi-process run (each guard's stats are themselves
// deterministic functions of that process's trace). Counters sum; a
// high-water mark takes the maximum, the worst value any constituent
// guard ever observed. Merge does not allocate; it is called per
// process or per fleet batch, never per check.
func (s *Stats) Merge(o *Stats) {
	dst, src := reflect.ValueOf(s).Elem(), reflect.ValueOf(o).Elem()
	for i, isMax := range statsMaxMerged {
		d, v := dst.Field(i), src.Field(i).Uint()
		switch {
		case !isMax:
			d.SetUint(d.Uint() + v)
		case v > d.Uint():
			d.SetUint(v)
		}
	}
}

// StatField is one Stats counter with its field name.
type StatField struct {
	Name  string
	Value uint64
}

// Fields returns every counter in declaration order: the name/value view
// the reporters (fgbench's stats block, the artifact's fleet_stats) and
// the cross-run conformance comparisons iterate.
func (s *Stats) Fields() []StatField {
	v := reflect.ValueOf(s).Elem()
	out := make([]StatField, v.NumField())
	for i := range out {
		out[i] = StatField{Name: v.Type().Field(i).Name, Value: v.Field(i).Uint()}
	}
	return out
}

// CheckLedger reports the first accounting identity s breaks, or nil.
// Every cache hit is a high-credit edge; every fail-open or fail-closed
// resolution, and every fairness shed, is one degraded check; every
// fail-closure is a violation; and a degraded check makes at most
// DefaultRetryMax recovery attempts. The identities are sums over
// checks, so they also hold for merged ledgers.
func (s *Stats) CheckLedger() error {
	for _, c := range [...]struct {
		rule   string
		lo, hi uint64
	}{
		{"CacheHits <= HighEdges", s.CacheHits, s.HighEdges},
		{"FailOpens+FailClosures <= DegradedChecks", s.FailOpens + s.FailClosures, s.DegradedChecks},
		{"DegradedChecks <= Checks", s.DegradedChecks, s.Checks},
		{"FailClosures <= Violations", s.FailClosures, s.Violations},
		{"Shed <= DegradedChecks", s.Shed, s.DegradedChecks},
		{"SlowChecks <= Checks", s.SlowChecks, s.Checks},
		{"Retries <= DefaultRetryMax*DegradedChecks", s.Retries, DefaultRetryMax * s.DegradedChecks},
	} {
		if c.lo > c.hi {
			return fmt.Errorf("guard: stats ledger breaks %s (%d > %d)", c.rule, c.lo, c.hi)
		}
	}
	return nil
}

// CredRatioRuntime returns the runtime fraction of credible edges
// (Figure 5(d)'s cred-ratio series).
func (s *Stats) CredRatioRuntime() float64 {
	t := s.HighEdges + s.LowEdges
	if t == 0 {
		return 1
	}
	return float64(s.HighEdges) / float64(t)
}

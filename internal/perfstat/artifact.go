package perfstat

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// SchemaVersion is the artifact schema generation. Decode rejects any
// other value: a reader that silently accepted a future schema would
// compare the wrong fields and report a confident nonsense verdict,
// which is worse than failing loudly.
const SchemaVersion = 1

// Artifact is one BENCH_<date>.json: every benchmark's raw samples from
// one orchestrated fgperf run (or one fgbench -json experiment run),
// plus enough environment metadata to judge comparability. Raw samples
// — not pre-digested summaries — are stored so a future reader can
// re-run any statistic over an old trajectory point.
type Artifact struct {
	// Schema must equal SchemaVersion.
	Schema int `json:"schema"`
	// Tool identifies the producer ("fgperf", "fgbench").
	Tool string `json:"tool"`
	// CreatedAt is an RFC3339 timestamp, supplied by the producer.
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version,omitempty"`
	GOOS      string `json:"goos,omitempty"`
	GOARCH    string `json:"goarch,omitempty"`
	NumCPU    int    `json:"num_cpu,omitempty"`
	// Iterations is how many interleaved suite repetitions contributed
	// samples (fgperf -n).
	Iterations int `json:"iterations,omitempty"`
	// BenchArgs records the go test flags used, for reproducibility.
	BenchArgs string `json:"bench_args,omitempty"`

	Benchmarks []Benchmark `json:"benchmarks"`

	// Phases holds Figure 5-style per-app overhead breakdowns from the
	// harness (trace/decode/check/other percentages), making the fgbench
	// report machine-readable alongside the wall-clock benchmarks.
	Phases []PhaseBreakdown `json:"phases,omitempty"`
	// FleetStats is the merged guard.Stats counter map of a fleet run
	// plus its fleet ledgers (harness.FleetResult.FleetStatsMap), when
	// the producer ran one (flowguardd -out).
	FleetStats map[string]uint64 `json:"fleet_stats,omitempty"`
}

// Benchmark is one benchmark's accumulated samples across iterations,
// keyed by unit ("ns/op", "B/op", "allocs/op", and any custom
// b.ReportMetric units such as "gc-cycles/op").
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped (sub-benchmark paths are kept), so artifacts from
	// machines with different core counts stay comparable.
	Name string `json:"name"`
	// Tier1 marks the hot-path benchmarks covered by the CI regression
	// gate.
	Tier1 bool `json:"tier1,omitempty"`
	// Samples maps unit → one sample per contributing iteration.
	Samples map[string][]float64 `json:"samples"`
}

// PhaseBreakdown mirrors harness.OverheadRow in schema-stable form: one
// protected app's total overhead and its per-phase split.
type PhaseBreakdown struct {
	App        string  `json:"app"`
	Category   string  `json:"category,omitempty"`
	TotalPct   float64 `json:"total_pct"`
	TracePct   float64 `json:"trace_pct"`
	DecodePct  float64 `json:"decode_pct"`
	CheckPct   float64 `json:"check_pct"`
	OtherPct   float64 `json:"other_pct"`
	SlowRate   float64 `json:"slow_rate"`
	CredRatio  float64 `json:"cred_ratio"`
	BaseInstrs uint64  `json:"base_instrs,omitempty"`
}

// Units returns the benchmark's units in deterministic order, ns/op
// first (it is the headline unit everywhere).
func (b *Benchmark) Units() []string {
	units := make([]string, 0, len(b.Samples))
	for u := range b.Samples {
		units = append(units, u)
	}
	sort.Slice(units, func(i, j int) bool {
		if (units[i] == "ns/op") != (units[j] == "ns/op") {
			return units[i] == "ns/op"
		}
		return units[i] < units[j]
	})
	return units
}

// Find returns the named benchmark, or nil.
func (a *Artifact) Find(name string) *Benchmark {
	for i := range a.Benchmarks {
		if a.Benchmarks[i].Name == name {
			return &a.Benchmarks[i]
		}
	}
	return nil
}

// Validate checks the structural invariants Decode enforces.
func (a *Artifact) Validate() error {
	if a.Schema != SchemaVersion {
		return fmt.Errorf("perfstat: artifact schema %d, this reader understands %d", a.Schema, SchemaVersion)
	}
	seen := make(map[string]bool, len(a.Benchmarks))
	for i := range a.Benchmarks {
		b := &a.Benchmarks[i]
		if b.Name == "" {
			return fmt.Errorf("perfstat: benchmark %d has an empty name", i)
		}
		if seen[b.Name] {
			return fmt.Errorf("perfstat: duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		for unit, samples := range b.Samples {
			if unit == "" {
				return fmt.Errorf("perfstat: %s has a sample set with an empty unit", b.Name)
			}
			if len(samples) == 0 {
				return fmt.Errorf("perfstat: %s %s has no samples", b.Name, unit)
			}
			for _, v := range samples {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("perfstat: %s %s contains a non-finite sample", b.Name, unit)
				}
			}
		}
	}
	return nil
}

// Encode writes the artifact as indented JSON. The artifact must
// validate: writing a file this package would then refuse to read is
// always a producer bug.
func (a *Artifact) Encode(w io.Writer) error {
	if err := a.Validate(); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// DecodeArtifact parses and validates one artifact.
func DecodeArtifact(r io.Reader) (*Artifact, error) {
	dec := json.NewDecoder(r)
	var a Artifact
	if err := dec.Decode(&a); err != nil {
		return nil, fmt.Errorf("perfstat: decode artifact: %w", err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}

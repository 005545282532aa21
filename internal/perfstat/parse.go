package perfstat

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Collector accumulates parsed `go test -bench` output lines across
// repeated suite iterations into per-benchmark sample sets.
type Collector struct {
	order  []string
	byName map[string]*Benchmark
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byName: make(map[string]*Benchmark)}
}

// NormalizeBenchName strips the trailing -GOMAXPROCS suffix go test
// appends to the final path element ("BenchmarkFastPath-8" →
// "BenchmarkFastPath", "BenchmarkX/sub-8" → "BenchmarkX/sub"), so
// artifacts from machines with different core counts compare by name.
func NormalizeBenchName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i < strings.LastIndexByte(name, '/') {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// ParseBenchLine parses one benchmark result line of the form
//
//	BenchmarkFastPath-8   1234   987.5 ns/op   0 B/op   0 allocs/op
//
// returning the normalized name and the unit → value pairs. Non-result
// lines (PASS, ok, goos:, headers, test logs) report ok == false.
func ParseBenchLine(line string) (name string, values map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.Atoi(fields[1]); err != nil {
		return "", nil, false
	}
	values = make(map[string]float64, (len(fields)-2)/2)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		values[fields[i+1]] = v
	}
	if len(values) == 0 {
		return "", nil, false
	}
	return NormalizeBenchName(fields[0]), values, true
}

// Add parses one go test -bench output stream and appends every result
// line's values as one sample per unit. A benchmark appearing more than
// once in a single stream (e.g. -count > 1) contributes one sample per
// appearance.
func (c *Collector) Add(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, values, ok := ParseBenchLine(sc.Text())
		if !ok {
			continue
		}
		b := c.byName[name]
		if b == nil {
			b = &Benchmark{Name: name, Samples: make(map[string][]float64)}
			c.byName[name] = b
			c.order = append(c.order, name)
		}
		for unit, v := range values {
			b.Samples[unit] = append(b.Samples[unit], v)
		}
	}
	return sc.Err()
}

// Benchmarks returns the accumulated benchmarks. The order is the first
// appearance order, which for interleaved iterations is the suite's own
// declaration order — stable across runs.
func (c *Collector) Benchmarks() []Benchmark {
	out := make([]Benchmark, 0, len(c.order))
	for _, name := range c.order {
		out = append(out, *c.byName[name])
	}
	return out
}

// MarkTier1 sets the Tier1 flag on every benchmark whose normalized
// name matches one of the given exact names or "prefix/" sub-benchmark
// roots, and returns how many were marked.
func MarkTier1(benches []Benchmark, names []string) int {
	marked := 0
	for i := range benches {
		for _, n := range names {
			if benches[i].Name == n || strings.HasPrefix(benches[i].Name, n+"/") {
				benches[i].Tier1 = true
				marked++
				break
			}
		}
	}
	return marked
}

// MissingTier1 lists the tier-1 names with no benchmark in the set —
// neither an exact match nor a sub-benchmark. A gate that only diffs
// against a baseline misses a benchmark that was renamed or deleted in
// the same change that regenerated the baseline; this check is absolute,
// so the protected set cannot silently shrink.
func MissingTier1(benches []Benchmark, names []string) []string {
	var missing []string
	for _, n := range names {
		found := false
		for i := range benches {
			if benches[i].Name == n || strings.HasPrefix(benches[i].Name, n+"/") {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, n)
		}
	}
	return missing
}

// Tier1Names is the hot-path benchmark set the CI regression gate
// protects: the §5.3 fast path and its feeding layers, the endpoint
// check over a growing trace (BenchmarkGuardCheckAppend), the precise
// check over a cold-start window (BenchmarkGuardSlowPath), and the
// emulator's cost per retired instruction (BenchmarkCPURun, untraced
// and under the IPT tracer), which bounds every emulating workload. The
// last three are gated once a baseline holds them. Sub-benchmarks of a
// listed name are included.
func Tier1Names() []string {
	names := []string{
		"BenchmarkCPURun",
		"BenchmarkGuardSlowPath",
		"BenchmarkFastPath",
		"BenchmarkFastDecode",
		"BenchmarkGuardCheck",
		"BenchmarkGuardCheckAppend",
		"BenchmarkITCLookup",
		"BenchmarkITCFlatSerialize",
		"BenchmarkIPTPacketScan",
		"BenchmarkApprovalCache",
		"BenchmarkIncrementalWindow",
		"BenchmarkCheckPoolThroughput",
		"BenchmarkAsyncSyscallGate",
		"BenchmarkFleetThroughput",
		"BenchmarkDemux",
	}
	sort.Strings(names)
	return names
}

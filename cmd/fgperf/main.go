// Command fgperf orchestrates the repo's benchmark suites into a
// statistically defensible performance artifact.
//
// A single `go test -bench` run is one sample per benchmark — useless
// for deciding whether a change regressed the fast path, because
// scheduling noise on a shared machine easily exceeds the effects under
// test. fgperf instead runs the whole suite N times in interleaved
// order (iteration 1 of every benchmark, then iteration 2, ...), so
// slow drift of the machine spreads across all benchmarks instead of
// biasing whichever ran last, then summarizes each benchmark's N
// samples (median, bootstrap CI) and, against a baseline artifact,
// runs a Mann–Whitney U test per benchmark. The result is written as a
// schema-versioned BENCH_<date>.json trajectory point and rendered as a
// benchstat-style table.
//
//	fgperf                            # full suite, 5 iterations, BENCH_<date>.json
//	fgperf -short                     # tier-1 hot-path benchmarks only, 8 iterations
//	                                  # (CI's bench job)
//	fgperf -short -base bench/baseline.json -gate
//	                                  # compare against the committed baseline and
//	                                  # exit 1 on a significant >10% tier-1 slowdown
//	fgperf -compare BENCH_a.json -base BENCH_b.json -gate
//	                                  # compare two existing artifacts, no benchmarks run
//	fgperf -short -profile prof/      # also capture pprof CPU+alloc profiles
//	fgperf -short -metrics            # sample runtime/metrics inside the benchmarks
//
// The regression gate only fails on *tier-1* benchmarks (the §5.3 fast
// path, its feeding layers, the slow path's precise check and the
// emulator — see perfstat.Tier1Names), and only on a
// change that is both statistically significant (p < alpha) and larger
// than the threshold; everything else is advisory output.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"flowguard/internal/perfstat"
)

// suite is one go test invocation: a package and a benchmark regexp.
type suite struct {
	pkg   string
	bench string
}

// fullSuites covers every package that declares benchmarks.
var fullSuites = []suite{
	{pkg: ".", bench: "."},
	{pkg: "./internal/guard", bench: "."},
	{pkg: "./internal/trace/ipt", bench: "."},
	{pkg: "./internal/harness", bench: "^BenchmarkFleetThroughput$"},
}

// shortSuites is the tier-1 hot-path subset: quick enough for CI, and
// exactly the set the regression gate protects.
var shortSuites = []suite{
	{pkg: ".", bench: "^(BenchmarkFastPath|BenchmarkFastDecode|BenchmarkGuardCheck|BenchmarkGuardCheckAppend|BenchmarkITCLookup|BenchmarkITCFlatSerialize|BenchmarkIPTPacketScan|BenchmarkCPURun)$"},
	{pkg: "./internal/guard", bench: "^(BenchmarkIncrementalWindow|BenchmarkApprovalCache|BenchmarkCheckPoolThroughput|BenchmarkAsyncSyscallGate|BenchmarkGuardSlowPath)$"},
	{pkg: "./internal/trace/ipt", bench: "^BenchmarkDemux$"},
	{pkg: "./internal/harness", bench: "^BenchmarkFleetThroughput$"},
}

func main() {
	var (
		n           = flag.Int("n", 5, "interleaved suite iterations (samples per benchmark; default 8 under -short)")
		short       = flag.Bool("short", false, "run only the tier-1 hot-path benchmarks, with a bounded -benchtime")
		benchtime   = flag.String("benchtime", "", "go test -benchtime value (default: go's 1s; 2000x under -short)")
		benchRe     = flag.String("bench", "", "override the benchmark regexp for every suite")
		outPath     = flag.String("out", "", "artifact output path (default BENCH_<yyyy-mm-dd>.json)")
		basePath    = flag.String("base", "", "baseline artifact to compare the run against")
		comparePath = flag.String("compare", "", "compare this existing artifact against -base instead of running benchmarks")
		gate        = flag.Bool("gate", false, "exit 1 on a significant tier-1 regression vs -base")
		threshold   = flag.Float64("threshold", 10, "regression threshold, percent median slowdown")
		alpha       = flag.Float64("alpha", 0.05, "significance level for the Mann-Whitney U test")
		profile     = flag.String("profile", "", "directory to write pprof CPU+alloc profiles into (first iteration only)")
		metrics     = flag.Bool("metrics", false, "pass -fgmetrics to the root suite (runtime/metrics sampling in the benchmarks)")
		verbose     = flag.Bool("v", false, "stream go test output while running")
		reqTier1    = flag.Bool("require-tier1", false, "exit 1 unless every perfstat.Tier1Names benchmark appears in the run (catches renames that a baseline regenerated in the same change would hide)")
	)
	flag.Parse()

	// Under -short the samples feed the CI regression gate, and at the
	// default n=5 a Mann-Whitney rank test can reach p < 0.05 on rank
	// ordering alone — one unlucky scheduling phase on a shared runner
	// reads as a regression. Eight samples put the extreme-rank flukes
	// well past the gate's alpha, so -short raises the default unless -n
	// was given explicitly.
	if *short {
		nSet := false
		flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
		if !nSet {
			*n = 8
		}
	}

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fgperf:", err)
		os.Exit(1)
	}

	cfg := perfstat.GateConfig{Alpha: *alpha, ThresholdPct: *threshold}

	if *comparePath != "" {
		if *basePath == "" {
			fail(fmt.Errorf("-compare needs -base"))
		}
		cur, err := readArtifact(*comparePath)
		if err != nil {
			fail(err)
		}
		if *reqTier1 {
			if err := requireTier1(cur); err != nil {
				fail(err)
			}
		}
		os.Exit(compareAndReport(cur, *basePath, cfg, *gate))
	}

	art, err := run(*n, *short, *benchtime, *benchRe, *profile, *metrics, *verbose)
	if err != nil {
		fail(err)
	}
	if *reqTier1 {
		if err := requireTier1(art); err != nil {
			fail(err)
		}
	}

	path := *outPath
	if path == "" {
		path = "BENCH_" + time.Now().UTC().Format("2006-01-02") + ".json"
	}
	if err := writeArtifact(art, path); err != nil {
		fail(err)
	}
	fmt.Printf("wrote %s (%d benchmarks x %d iterations)\n\n", path, len(art.Benchmarks), art.Iterations)
	fmt.Print(perfstat.FormatArtifact(art))

	if *basePath != "" {
		os.Exit(compareAndReport(art, *basePath, cfg, *gate))
	}
}

// requireTier1 fails when any protected tier-1 benchmark produced no
// samples: the baseline-relative gate cannot see a benchmark that was
// renamed or deleted in the same change that refreshed the baseline, so
// this check is absolute against the tier-1 list itself.
func requireTier1(art *perfstat.Artifact) error {
	if missing := perfstat.MissingTier1(art.Benchmarks, perfstat.Tier1Names()); len(missing) > 0 {
		return fmt.Errorf("tier-1 benchmarks missing from the run: %s", strings.Join(missing, ", "))
	}
	return nil
}

// run executes every suite n times in interleaved order and returns the
// accumulated artifact.
func run(n int, short bool, benchtime, benchRe, profileDir string, metrics, verbose bool) (*perfstat.Artifact, error) {
	if n < 1 {
		n = 1
	}
	suites := fullSuites
	if short {
		suites = shortSuites
		if benchtime == "" {
			// 2000x, not go's adaptive 1s: fixed iteration counts keep
			// the samples comparable across artifacts, and the count must
			// be high enough that (a) a ~20ns tier-1 benchmark (the flat
			// ITC lookup) measures the operation rather than the
			// monotonic clock reads around the loop — at 20x the timer
			// overhead is ~10x the op — and (b) each sample spans several
			// milliseconds, long enough to average over scheduler
			// interference on a shared single-core runner instead of
			// letting one preemption double a sample.
			benchtime = "2000x"
		}
	}
	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	if profileDir != "" {
		if err := os.MkdirAll(profileDir, 0o755); err != nil {
			return nil, err
		}
	}

	col := perfstat.NewCollector()
	var argsDesc string
	for iter := 0; iter < n; iter++ {
		for si, s := range suites {
			re := s.bench
			if benchRe != "" {
				re = benchRe
			}
			args := []string{"test", "-run", "^$", "-bench", re, "-benchmem"}
			if benchtime != "" {
				args = append(args, "-benchtime", benchtime)
			}
			if profileDir != "" && iter == 0 {
				tag := fmt.Sprintf("s%d", si)
				args = append(args,
					"-cpuprofile", filepath.Join(profileDir, "cpu_"+tag+".pprof"),
					"-memprofile", filepath.Join(profileDir, "mem_"+tag+".pprof"),
					"-o", filepath.Join(profileDir, "bench_"+tag+".test"),
				)
			}
			// The -fgmetrics flag is declared by the root package's bench
			// support; other packages would reject it.
			if metrics && s.pkg == "." {
				args = append(args, "-args", "-fgmetrics")
			}
			cmdArgs := buildArgs(args, s.pkg)
			if iter == 0 && si == 0 {
				argsDesc = strings.Join(cmdArgs[1:], " ")
			}
			fmt.Fprintf(os.Stderr, "fgperf: iteration %d/%d: go %s\n", iter+1, n, strings.Join(cmdArgs, " "))
			out, err := runGo(root, cmdArgs, verbose)
			if err != nil {
				return nil, err
			}
			if err := col.Add(bytes.NewReader(out)); err != nil {
				return nil, err
			}
		}
	}

	benches := col.Benchmarks()
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed — wrong -bench regexp?")
	}
	perfstat.MarkTier1(benches, perfstat.Tier1Names())
	return &perfstat.Artifact{
		Schema:     perfstat.SchemaVersion,
		Tool:       "fgperf",
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Iterations: n,
		BenchArgs:  argsDesc,
		Benchmarks: benches,
	}, nil
}

// buildArgs assembles the final go test argument list with the package
// placed before any -args passthrough section.
func buildArgs(args []string, pkg string) []string {
	for i, a := range args {
		if a == "-args" {
			out := make([]string, 0, len(args)+1)
			out = append(out, args[:i]...)
			out = append(out, pkg)
			out = append(out, args[i:]...)
			return out
		}
	}
	return append(append([]string(nil), args...), pkg)
}

// runGo executes one go test invocation from the module root.
func runGo(root string, args []string, verbose bool) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var buf bytes.Buffer
	cmd.Stderr = os.Stderr
	if verbose {
		// Tee: stream to the terminal while still capturing for parsing.
		cmd.Stdout = io.MultiWriter(&buf, os.Stdout)
	} else {
		cmd.Stdout = &buf
	}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go %s: %w\n%s", strings.Join(args, " "), err, buf.Bytes())
	}
	return buf.Bytes(), nil
}

// moduleRoot locates the module directory so fgperf works from any cwd.
func moduleRoot() (string, error) {
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		return "", fmt.Errorf("go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("not inside a Go module")
	}
	return filepath.Dir(gomod), nil
}

func readArtifact(path string) (*perfstat.Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return perfstat.DecodeArtifact(f)
}

func writeArtifact(a *perfstat.Artifact, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := a.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// compareAndReport prints the baseline comparison and returns the
// process exit code (1 only when gating and the gate fails).
func compareAndReport(cur *perfstat.Artifact, basePath string, cfg perfstat.GateConfig, gate bool) int {
	base, err := readArtifact(basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fgperf:", err)
		return 1
	}
	comps := perfstat.Compare(base, cur, cfg)
	fmt.Printf("\nvs baseline %s (%s, %s):\n", basePath, base.Tool, base.CreatedAt)
	fmt.Print(perfstat.FormatComparison(comps))
	if err := perfstat.Gate(comps); err != nil {
		if gate {
			fmt.Fprintln(os.Stderr, "fgperf: GATE FAILED:", err)
			return 1
		}
		fmt.Fprintln(os.Stderr, "fgperf: regressions found (advisory, no -gate):", err)
		return 0
	}
	fmt.Println("gate: no significant tier-1 regressions")
	return 0
}

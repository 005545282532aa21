// Command fgbench regenerates every table and figure of the paper's
// evaluation (§7) from the reproduction, printing one section per
// experiment:
//
//	fgbench -all                 # everything (EXPERIMENTS.md source)
//	fgbench -table 1             # tracing-mechanism comparison
//	fgbench -table 4 -table 5    # CFG statistics, memory & generation time
//	fgbench -fig 5a -fig 5c      # overhead panels
//	fgbench -micro -attacks      # §7.2.2 micro, §7.1.2 attack matrix
//	fgbench -sweep -ablation     # §7.1.1 parameters, §7.2.4 HW decoder
//	fgbench -chaos 90            # §7.1.2 fault injection, merged guard ledger
//	fgbench -claim decode230x    # the §2 slow-decoding measurement
//	fgbench -oracle 10000        # differential soak vs the naive oracle
//
// -scale / -seed / -train size the workloads; the defaults finish a full
// run in well under a minute.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/harness"
	"flowguard/internal/perfstat"
)

type listFlag []string

func (l *listFlag) String() string { return strings.Join(*l, ",") }
func (l *listFlag) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func main() {
	var tables, figs, claims listFlag
	all := flag.Bool("all", false, "run every experiment")
	micro := flag.Bool("micro", false, "run the fast/slow micro-benchmark (§7.2.2)")
	attacks := flag.Bool("attacks", false, "run the attack matrix (§7.1.2)")
	sweep := flag.Bool("sweep", false, "run the parameter sweeps (§7.1.1)")
	ablation := flag.Bool("ablation", false, "run the hardware-decoder ablation (§7.2.4)")
	modes := flag.Bool("modes", false, "compare checking modes: credits, path-sensitive, PMI fallback")
	multiproc := flag.Bool("multiproc", false, "CR3-filter limitation with interleaved processes (§7.2.4)")
	asyncN := flag.Int("async", 0, "run N samples per checking configuration comparing syscall-blocked time: synchronous vs the asynchronous pipeline")
	chaos := flag.Int("chaos", 0, "run N seeded fault-injection scenarios across the degraded-mode policies (§7.1.2 worst cases)")
	oracle := flag.Int("oracle", 0, "run N seeded differential checks of the optimized hybrid pipeline against the naive oracle")
	jsonOut := flag.String("json", "", "also write the results that ran as a perfstat artifact (fgperf-compatible BENCH json) to this path")
	scale := flag.Int("scale", 30, "workload scale (requests / iterations)")
	seed := flag.Int64("seed", 1, "workload seed")
	train := flag.Int("train", 6, "training replays per application")
	flag.Var(&tables, "table", "table to regenerate (1, 4, 5); repeatable")
	flag.Var(&figs, "fig", "figure to regenerate (5a, 5b, 5c, 5d); repeatable")
	flag.Var(&claims, "claim", "standalone claim to check (decode230x); repeatable")
	flag.Parse()

	r := harness.NewRunner()
	r.Scale = *scale
	r.Seed = *seed
	r.TrainRuns = *train

	want := func(list listFlag, v string) bool {
		if *all {
			return true
		}
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}

	ran := false
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "fgbench:", err)
		os.Exit(1)
	}
	section := func(title string) {
		ran = true
		fmt.Printf("\n== %s ==\n", title)
	}

	// -json accumulators: whichever sections run contribute their piece
	// of the perfstat artifact.
	var phases []perfstat.PhaseBreakdown
	var jsonBenches []perfstat.Benchmark

	if want(tables, "1") {
		section("Table 1: hardware control-flow tracing mechanisms")
		rows, err := r.Table1()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
	}
	if want(claims, "decode230x") {
		section("§2 claim: full-decode overhead vs execution")
		geo, per, err := r.DecodeOverheadX()
		if err != nil {
			fail(err)
		}
		for _, a := range apps.SpecApps() {
			fmt.Printf("  %-12s %.0fx\n", a.Name, per[a.Name])
		}
		fmt.Printf("  geomean: %.0fx (paper: ~230x)\n", geo)
	}
	if want(tables, "4") || want(tables, "5") {
		t4, t5, err := r.Table4And5()
		if err != nil {
			fail(err)
		}
		if want(tables, "4") {
			section("Table 4: CFG statistics and AIA")
			for _, row := range t4 {
				fmt.Println(" ", row)
			}
			before, after := harness.AverageAIAReduction(t4)
			fmt.Printf("  average AIA: %.2f -> %.2f (paper: 72 -> 20)\n", before, after)
		}
		if want(tables, "5") {
			section("Table 5: memory usage and CFG generation time")
			for _, row := range t5 {
				fmt.Println(" ", row)
			}
		}
	}
	if want(figs, "5a") {
		section("Figure 5(a): server overhead")
		rows, err := r.Fig5a()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
		phases = append(phases, harness.PhaseBreakdowns(rows)...)
	}
	if want(figs, "5b") {
		section("Figure 5(b): Linux-utility overhead")
		rows, err := r.Fig5b()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
		phases = append(phases, harness.PhaseBreakdowns(rows)...)
	}
	if want(figs, "5c") {
		section("Figure 5(c): SPEC-like kernel overhead")
		rows, err := r.Fig5c()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
		phases = append(phases, harness.PhaseBreakdowns(rows)...)
	}
	if want(figs, "5d") {
		section("Figure 5(d): fuzzing training dynamics")
		pts, err := r.Fig5d([]int{0, 200, 500, 1000, 2000})
		if err != nil {
			fail(err)
		}
		for _, p := range pts {
			fmt.Println(" ", p)
		}
	}
	if *all || *micro {
		section("§7.2.2 micro: fast path vs slow path (100-TIP window)")
		m, err := r.Micro()
		if err != nil {
			fail(err)
		}
		fmt.Println(" ", m)
		fmt.Println("  (paper: slow path ~0.23 ms, ~60x over the fast path)")
		jsonBenches = append(jsonBenches,
			perfstat.Benchmark{Name: "FgbenchMicro/fast-path", Tier1: true, Samples: map[string][]float64{
				"cycles/window": {float64(m.FastCycles)},
				"ns/op":         {float64(m.FastWall.Nanoseconds())},
			}},
			perfstat.Benchmark{Name: "FgbenchMicro/slow-path", Samples: map[string][]float64{
				"cycles/window":  {float64(m.SlowCycles)},
				"ns/op":          {float64(m.SlowWall.Nanoseconds())},
				"slow-over-fast": {m.SlowOverFast},
			}},
		)
	}
	if *all || *attacks {
		section("§7.1.2: real attack prevention")
		rows, err := r.Attacks()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
	}
	if *all || *sweep {
		section("§7.1.1: cred_ratio formula and pkt_count sweep")
		sweeps, err := r.SweepCredRatio()
		if err != nil {
			fail(err)
		}
		for _, s := range sweeps {
			fmt.Println(" ", s)
		}
		pts, err := r.SweepPktCount([]int{10, 20, 30, 60, 90})
		if err != nil {
			fail(err)
		}
		for _, p := range pts {
			fmt.Println(" ", p)
		}
	}
	if *all || *ablation {
		section("§7.2.4: dedicated hardware decoder ablation")
		rows, err := r.HWAblation()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
	}

	if *all || *modes {
		section("checking-mode matrix: default / multi-level credits / path-sensitive / PMI")
		rows, err := r.Modes()
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
		}
	}

	if *all || *multiproc {
		section("§7.2.4: single-CR3 filtering vs multi-process tracing cost")
		res, err := r.MultiProc(3)
		if err != nil {
			fail(err)
		}
		fmt.Println(" ", res)
		fmt.Println("  (paper: single-process apps outperform multi-process ones under one CR3 filter)")
	}

	if *all || *asyncN > 0 {
		n := *asyncN
		if n <= 0 {
			n = 12
		}
		section("asynchronous checking: syscall-blocked time at the interception boundary")
		rows, err := r.AsyncGate(n)
		if err != nil {
			fail(err)
		}
		for _, row := range rows {
			fmt.Println(" ", row)
			jsonBenches = append(jsonBenches, perfstat.Benchmark{
				Name:    "FgbenchAsyncGate/" + row.Name,
				Samples: map[string][]float64{"blocked-ns/call": row.Samples},
			})
		}
		fmt.Printf("  (num_cpu=%d; bar, met or not met per async row: beat sync with Mann-Whitney p < 0.05; verdicts are unchanged by construction)\n", runtime.NumCPU())
	}

	if *all || *chaos > 0 {
		n := *chaos
		if n <= 0 {
			n = 90
		}
		section("§7.1.2 worst cases: fault injection across degraded modes")
		rows, err := r.Chaos(n)
		if err != nil {
			fail(err)
		}
		var agg guard.Stats
		for _, row := range rows {
			fmt.Println(" ", row)
			agg.Merge(&row.Stats)
		}
		fmt.Println("  (trace loss/corruption/gaps per policy; attacks must still die except in explicit fail-open windows)")
		fmt.Println("  merged guard stats across every policy:")
		fmt.Print(harness.FormatStats(&agg))
	}

	if *all || *oracle > 0 {
		n := *oracle
		if n <= 0 {
			n = 60
		}
		section("differential oracle: optimized hybrid pipeline vs naive reference")
		rows, err := r.OracleSoak(n)
		if err != nil {
			fail(err)
		}
		diverged := 0
		for _, row := range rows {
			fmt.Println(" ", row)
			diverged += row.DivergenceCount + row.Panics + row.Errors
			for _, s := range row.Samples {
				fmt.Println("    !", s)
			}
		}
		if diverged != 0 {
			fail(fmt.Errorf("oracle soak found %d divergences/panics/errors", diverged))
		}
		fmt.Println("  (benign, exploit, chaos-faulted and mutated-stream workloads; zero divergences required)")
	}

	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if *jsonOut != "" {
		art := &perfstat.Artifact{
			Schema:     perfstat.SchemaVersion,
			Tool:       "fgbench",
			CreatedAt:  time.Now().UTC().Format(time.RFC3339),
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			Iterations: 1,
			BenchArgs:  strings.Join(os.Args[1:], " "),
			Benchmarks: jsonBenches,
			Phases:     phases,
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			fail(err)
		}
		if err := art.Encode(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("\nwrote %s (%d benchmarks, %d phase rows)\n", *jsonOut, len(jsonBenches), len(phases))
	}
}

// Command perfbench is FlowGuard's end-to-end benchmark. It drives the
// production path — KernelModule.Protect/ProtectMulticore with the
// module's own endpoint interceptors, guard.FleetPool admission, and
// harness.Runner.Analyze/Train for the offline phase — over one of the
// workloads below, checks every verdict and every output, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload server-mix --seed 1 --seconds 10 --trace 0
//
// Workloads (each a closed loop; BENCHMARK.json lists the ones the
// benchmark is judged on, with the reason for each):
//
//	server-mix         one client, sessions of nginx, vsftpd and openssh back
//	                   to back, every 8th session a vulnd exploit that must
//	                   be killed; trained labels, synchronous checking
//	cold-start         the same servers with an untrained (static) ITC-CFG:
//	                   about a quarter of checks take the slow path
//	multicore-preempt  signald, threadd and nginx protected together under
//	                   RunMulticore on 2 cores: PIP/CR3 demux, per-thread
//	                   windows, signal edges
//	fleet-zipf         2,000 fleet processes over shared nginx/tar/dd
//	                   artifacts, Zipf tenants, fork storms, one driver
//	                   calling FleetPool.Do directly
//	transcode-async    transcoded at 100+ frames under Policy.Async with one
//	                   worker: every frame overflows a ToPA region (not in
//	                   BENCHMARK.json: the async gate polls the real clock,
//	                   so its blocked time swings by a third between runs)
//	server-mix-exim    server-mix with exim in the rotation (not in
//	                   BENCHMARK.json: exim's benign sessions currently fail
//	                   closed on a share of seeds; this workload shows it)
//
// Blocked time is the wall time one intercepted endpoint spends inside the
// kernel's interception gate, taken per call as the delta of
// Kernel.GateWait around the process's syscall handler; the sample sets of
// every session must reconcile exactly with GateWait's totals. For the
// fleet it is the time one FleetPool.Do call takes. Exploit sessions'
// endpoints are detection latency and are reported apart. Percentiles are
// reported only with at least ten samples beyond them, so runs are
// extended until p99 has them; blocked_mean_us is the median over
// operations of each operation's mean blocked time.
//
// Times are reported at a reference host speed (see calRef): the
// benchmark's hosts drift by ±20% within a minute, so times are scaled by
// how long a fixed calibration probe took just before (the fleet: by
// shadow steps interleaved with its checks); the probe times are printed
// too. peak_heap_mb is the largest live heap found by a collection at the
// end of an operation (the fleet: of the run), with the operation's
// processes, guards and traces still reachable.
//
// The exit status is non-zero only when the benchmark itself cannot run
// (a build, setup or reconciliation error). Failed operations — a benign
// session killed or producing different output than its unprotected
// reference, an exploit not killed, a violation verdict on the benign
// fleet — are counted in "failed" and make "correct" false.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"flowguard/internal/guard"
)

// config is one invocation's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// phase accumulates one measured closed-loop phase.
type phase struct {
	blocked dist // intercepted endpoints of benign sessions (fleet: every FleetPool.Do)
	fast    dist // blocked samples whose check moved no slow/degraded counter
	slow    dist // blocked samples whose check took the slow path
	detect  dist // intercepted endpoints of exploit sessions

	units, attempted, failed uint64
	failures                 []string

	wall, cpu time.Duration // summed over the timed operations
	peakHeap  uint64
	// cal holds the probe times the phase was scaled by; opMeans each
	// operation's mean blocked time (ns), for operations with benign
	// endpoints. Every time of the phase is at the reference speed.
	cal     []float64
	opMeans []float64
	// runScale and fastScale are the current factors from the host's
	// speed to the reference speed, for CPU-bound work and for endpoints
	// that took no slow path (see calRef); 0 (in tests) leaves times as
	// measured.
	runScale, fastScale float64
	// p99, when set, is the blocked p99 (ns) at the reference speed,
	// scaled apart from the rest of the samples (see fleetShadowRef99).
	p99 float64

	gate      time.Duration // time inside the gate (sum of blocked samples)
	gateCalls uint64
	exec      time.Duration // time in the scheduler's run call minus gate
	instrs    uint64

	stats guard.Stats
	pool  guard.PoolStats
	dmx   demuxCounts
	rep   replayCounts
}

// atRef converts a time measured at the host's speed to the reference
// speed by factor k; k == 0 leaves it as measured.
func atRef(d time.Duration, k float64) time.Duration {
	if k == 0 {
		return d
	}
	return time.Duration(float64(d) * k)
}

type demuxCounts struct {
	forwarded, stripped uint64
	resyncs, unmarked   uint64
}

// bench is one invocation's state.
type bench struct {
	cfg config
	sp  spans
	ph  *phase
	// setupS is each set-up's duration in seconds at reference speed;
	// setupCal the calibration before each.
	setupS   []float64
	setupCal []float64
	// artifactBytes is the summed size of the label artifacts the
	// workload's guards consult.
	artifactBytes uint64
	// calRef is the reference time of the probe whose times the phases
	// collect in cal.
	calRef float64
}

// workload is one benchmark workload: setup builds its protected state
// (called several times, the last build is kept), measure runs its closed
// loop for the given number of seconds into b.ph.
type workload interface {
	setup(b *bench) error
	measure(b *bench, seconds float64) error
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "server-mix":
		return newServerMix(seed, false, true)
	case "server-mix-exim":
		return newServerMix(seed, true, true)
	case "cold-start":
		return newServerMix(seed, false, false)
	case "transcode-async":
		return newTranscodeAsync(seed)
	case "multicore-preempt":
		return newMulticorePreempt(seed)
	case "fleet-zipf":
		return &fleetZipf{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     uint64  // samples behind the value, printed but not in the JSON line
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "server-mix", "workload name")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = *trace != 0
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// gcPercent is the benchmark process's GOGC.
const gcPercent = 400

// setupMinReps and setupMinTime size the repeated set-up: at least three
// builds, more while they add up to less than half a second, so the
// median is steady for cheap set-ups too.
const (
	setupMinReps = 3
	setupMaxReps = 25
	setupMinTime = 500 * time.Millisecond
)

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	wl, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		return err
	}
	b := &bench{cfg: cfg, calRef: calRef}
	if _, ok := wl.(*fleetZipf); ok {
		b.calRef = fleetShadowRef
	}
	b.sp.on, b.sp.t0 = cfg.trace, time.Now()
	// Collect less often than the default: with the kernel workloads'
	// collection between operations, most operations then run without a
	// collection cycle, whose assists would otherwise land in random
	// endpoints as millisecond stalls.
	debug.SetGCPercent(gcPercent)

	var spent time.Duration
	for rep := 0; rep < setupMinReps || (spent < setupMinTime && rep < setupMaxReps); rep++ {
		cal := calibrate()
		t0 := time.Now()
		if err := wl.setup(b); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		b.setupS = append(b.setupS, d.Seconds()*calRef/cal)
		b.setupCal = append(b.setupCal, cal)
	}
	runtime.GC()

	fmt.Printf("env: workload=%s seed=%d seconds=%g trace=%v num_cpu=%d gomaxprocs=%d go=%s\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	fmt.Printf("setup: %d builds, median %.4f s at reference speed\n", len(b.setupS), median(b.setupS))

	if !cfg.trace {
		ph, err := b.measure(wl, cfg.seconds)
		if err != nil {
			return err
		}
		return emit(ph, endToEnd(b, ph))
	}

	// Traced run: an untraced half for the overhead baseline, then the
	// traced half the per-layer metrics come from.
	b.sp.on = false
	base, err := b.measure(wl, cfg.seconds/2)
	if err != nil {
		return err
	}
	b.sp.on = true
	traced, err := b.measure(wl, cfg.seconds/2)
	if err != nil {
		return err
	}
	printSpans(&b.sp)
	return emit(traced, perLayer(b, base, traced))
}

func (b *bench) measure(wl workload, seconds float64) (*phase, error) {
	b.ph = &phase{}
	runtime.GC()
	err := wl.measure(b, seconds)
	return b.ph, err
}

// endToEnd computes the end-to-end metrics of an untraced phase.
func endToEnd(b *bench, ph *phase) map[string]metric {
	m := map[string]metric{}
	p50, _ := ph.blocked.quantile(0.50)
	p99, _ := ph.blocked.quantile(0.99)
	if ph.p99 > 0 {
		p99 = ph.p99
	}
	m["blocked_p50_us"] = metric{p50 / 1e3, "us", ph.blocked.n}
	m["blocked_p99_us"] = metric{p99 / 1e3, "us", ph.blocked.n}
	m["blocked_mean_us"] = metric{median(ph.opMeans) / 1e3, "us", uint64(len(ph.opMeans))}
	m["requests_per_s"] = metric{ratio(float64(ph.units), ph.wall.Seconds()), "1/s", ph.units}
	m["cpu_us_per_request"] = metric{ratio(float64(ph.cpu.Microseconds()), float64(ph.units)), "us", ph.units}
	m["setup_s"] = metric{median(b.setupS), "s", uint64(len(b.setupS))}
	m["peak_heap_mb"] = metric{float64(ph.peakHeap) / (1 << 20), "MiB", 0}
	fmt.Printf("samples: blocked n=%d (p99 needs %d) over %d operations; blocked_mean_us is the median of per-operation means\n",
		ph.blocked.n, samplesFor(0.99), len(ph.opMeans))
	fmt.Printf("host speed: median probe %.0f ns over %d probes, %.0f ns at the reference speed\n",
		median(ph.cal), len(ph.cal), b.calRef)
	if ph.detect.n > 0 {
		p50, _ := ph.detect.quantile(0.5)
		fmt.Printf("exploit sessions: endpoints blocked p50 %.3f us, mean %.3f us (n=%d; not in blocked_*)\n",
			p50/1e3, ph.detect.mean()/1e3, ph.detect.n)
	}
	fmt.Printf("failed_pct: %.4f %% (%d of %d operations)\n", pct(ph.failed, ph.attempted), ph.failed, ph.attempted)
	return m
}

// perLayer computes the per-layer metrics of a traced phase; base is the
// untraced phase run just before it. The phase's own times are at the
// reference speed already; f scales the replays timed after it.
func perLayer(b *bench, base, ph *phase) map[string]metric {
	st := &ph.stats
	f := speedScale(ph.cal, b.calRef)
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit, 0} }
	fastP50, _ := ph.fast.quantile(0.50)
	edges := float64(st.HighEdges + st.LowEdges)

	put("kernelsim.gate_calls", float64(ph.gateCalls), "count")
	put("kernelsim.gate_ms", ms(ph.gate), "ms")
	put("kernelsim.exec_ms", ms(ph.exec), "ms")
	put("cpu.instrs", float64(ph.instrs), "count")
	put("cpu.minstr_per_s", ratio(float64(ph.instrs)/1e6, ph.exec.Seconds()), "Minstr/s")

	put("guard.fast_us_p50", fastP50/1e3, "us")
	put("guard.tips_per_check", ratio(float64(st.TIPsChecked), float64(st.Checks)), "count")
	put("guard.bytes_per_check", ratio(float64(st.BytesScanned), float64(st.Checks)), "B")
	put("guard.cache_hit_ratio", ratio(float64(st.CacheHits), edges), "ratio")
	put("itc.lookups", float64(ph.rep.lookups), "count")
	put("itc.lookup_ns", ratio(float64(ph.rep.lookupNs)*f, float64(ph.rep.lookups)), "ns")
	put("itc.high_credit_ratio", ratio(float64(st.HighEdges), edges), "ratio")

	put("ipt.bytes_scanned", float64(st.BytesScanned), "B")
	put("ipt.scan_ns_per_kb", ratio(float64(ph.rep.scanNs)*f, float64(ph.rep.scanBytes)/1024), "ns/KiB")
	put("guard.async_windows", float64(st.AsyncWindows), "count")
	put("guard.async_max_lag", float64(st.AsyncMaxLag), "count")
	put("guard.backpressure_stalls", float64(st.BackpressureStalls), "count")
	put("guard.watchdog_sheds", float64(st.WatchdogSheds), "count")

	put("ipt.demux_ns_per_kb", ratio(float64(ph.rep.demuxNs)*f, float64(ph.rep.demuxBytes)/1024), "ns/KiB")
	put("ipt.demux_forwarded_bytes", float64(ph.dmx.forwarded), "B")
	put("ipt.demux_stripped_bytes", float64(ph.dmx.stripped), "B")
	put("ipt.demux_resyncs", float64(ph.dmx.resyncs), "count")
	put("ipt.demux_unmarked_losses", float64(ph.dmx.unmarked), "count")

	put("guard.slow_checks", float64(st.SlowChecks), "count")
	put("guard.slow_ratio", ratio(float64(st.SlowChecks), float64(st.Checks)), "ratio")
	put("ipt.full_decode_ms", ratio(ms(time.Duration(ph.rep.fullNs))*f, float64(ph.rep.fulls)), "ms")

	put("guard.pool_admitted", float64(ph.pool.Checks), "count")
	put("guard.pool_shed", float64(ph.pool.Shed), "count")
	put("guard.fairness_sheds", float64(ph.pool.FairnessSheds), "count")
	put("guard.pool_retried", float64(ph.pool.Retried), "count")
	put("guard.fork_inherits", float64(st.ForkInherits), "count")
	put("itc.artifact_bytes", float64(b.artifactBytes), "B")

	put("guard.degraded_checks", float64(st.DegradedChecks), "count")
	put("guard.fail_closures", float64(st.FailClosures), "count")
	put("guard.resyncs", float64(st.Resyncs), "count")

	perRep := speedScale(b.setupCal, calRef) / float64(len(b.setupCal))
	put("cfg.build_s", b.sp.total("replay.cfg.Build").Seconds()*perRep, "s")
	put("itc.from_cfg_s", b.sp.total("replay.itc.FromCFG").Seconds()*perRep, "s")
	put("itc.train_s", b.sp.total("harness.Train").Seconds()*perRep, "s")

	put("bench.failed_pct", pct(ph.failed, ph.attempted), "%")
	// Tracing overhead: wall time per completed unit, traced over untraced.
	put("bench.trace_overhead_pct", 100*(ratio(ratio(ph.wall.Seconds(), float64(ph.units)),
		ratio(base.wall.Seconds(), float64(base.units)))-1), "%")

	fmt.Printf("guard.slow_ms_p50: %.4f ms over %d slow checks\n", slowP50(ph), st.SlowChecks)
	fmt.Printf("samples: blocked n=%d fast n=%d lookups=%d scanned=%d B demuxed=%d B full decodes=%d\n",
		ph.blocked.n, ph.fast.n, ph.rep.lookups, ph.rep.scanBytes, ph.rep.demuxBytes, ph.rep.fulls)
	return m
}

func slowP50(ph *phase) float64 {
	v, _ := ph.slow.quantile(0.5)
	return v / 1e6
}

func emit(ph *phase, m map[string]metric) error {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-28s %14.4f %s", n, m[n].Value, m[n].Unit)
		if m[n].n > 0 {
			fmt.Printf(" (n=%d)", m[n].n)
		}
		fmt.Println()
	}
	for i, f := range ph.failures {
		fmt.Printf("failure %d: %s\n", i+1, f)
	}
	if ph.attempted == 0 {
		return fmt.Errorf("no operation completed")
	}
	out, err := json.Marshal(result{
		Correct:   ph.failed == 0,
		Attempted: ph.attempted,
		Failed:    ph.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// printSpans prints each traced span name's count, total and self time.
func printSpans(s *spans) {
	for _, r := range s.summary() {
		fmt.Printf("span %-28s n=%-8d total_ms=%-12.3f self_ms=%.3f\n",
			r.name, r.n, ms(r.total), ms(r.self))
	}
}

// verdict records the outcome of one operation: reason is empty when the
// operation succeeded, in which case its units count as completed.
func (b *bench) verdict(reason string, units uint64) {
	b.ph.attempted++
	if reason == "" {
		b.ph.units += units
		return
	}
	b.ph.failed++
	if len(b.ph.failures) < 20 {
		b.ph.failures = append(b.ph.failures, reason)
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func pct(a, b uint64) float64 { return 100 * ratio(float64(a), float64(b)) }

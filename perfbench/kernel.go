package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/harness"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// Each kernel workload cycles through a pool of inputs generated from the
// seed, whose unprotected reference outputs are computed once, before
// timing starts. Sessions never share FlowGuard state (each gets a fresh
// kernel and guard over the immutable trained labels), so repeating an
// input repeats its work exactly.
const (
	serverPool   = 36 // inputs per server app, multicore rounds: about one pass of cold-start in a run
	poolSize     = 8  // transcode inputs
	sessionScale = 30 // requests per server session, the harness default
)

// inputSeed derives the seed of the i-th generated input of a run,
// disjoint from the training seeds (Runner.Seed+100..).
func inputSeed(seed int64, i int) int64 { return seed*1_000_003 + 1_000_000 + int64(i) }

// closedLoop runs op(0), op(1), ... back to back until the phase has
// measured the requested seconds and p99 has its ten samples beyond. Each
// operation is recorded at the reference speed by the calibrations just
// before it (see calRef).
func (b *bench) closedLoop(seconds float64, op func(i int) error) error {
	need := samplesFor(0.99)
	limit := time.Duration(seconds*float64(time.Second))*4 + 60*time.Second
	start := time.Now()
	ph := b.ph
	var calAt time.Time
	var spent time.Duration // the operations' wall time at the host's speed
	for i := 0; spent.Seconds() < seconds || ph.blocked.n < need; i++ {
		if time.Since(start) > limit {
			return fmt.Errorf("%d blocked samples after %v; p99 needs %d", ph.blocked.n, limit, need)
		}
		if time.Since(calAt) >= calEvery {
			ph.cal = append(ph.cal, calibrate())
			calAt = time.Now()
			ph.runScale = speedScale(ph.cal[max(len(ph.cal)-calWindow, 0):], calRef)
			ph.fastScale = math.Pow(ph.runScale, emulatedBlockedExp)
		}
		wall0, cpu0, exec0 := ph.wall, ph.cpu, ph.exec
		// Every operation starts on a collected heap, so no garbage of an
		// earlier one is collected on its clock. The collection's CPU time
		// is charged to the operations all the same.
		c0 := cpuTime()
		runtime.GC()
		ph.cpu += cpuTime() - c0
		n0, sum0 := ph.blocked.n, ph.blocked.sum
		if err := op(i); err != nil {
			return err
		}
		spent += ph.wall - wall0
		ph.wall = wall0 + atRef(ph.wall-wall0, ph.runScale)
		ph.cpu = cpu0 + atRef(ph.cpu-cpu0, ph.runScale)
		ph.exec = exec0 + atRef(ph.exec-exec0, ph.runScale)
		if n := ph.blocked.n - n0; n > 0 {
			ph.opMeans = append(ph.opMeans, (ph.blocked.sum-sum0)/float64(n))
		}
	}
	return nil
}

// liveHeap collects the heap while the finished operation's processes,
// guards and traces are still reachable, and raises the phase's peak live
// heap to what survives: the operation's resident memory, free of the
// runtime's collection timing (see heapBytes).
func (b *bench) liveHeap() {
	runtime.GC()
	b.ph.peakHeap = max(b.ph.peakHeap, heapBytes())
}

// soloInput is one session's input: a benign request stream with its
// reference output, or an exploit that must be killed.
type soloInput struct {
	app    int // index into the workload's analyses
	input  []byte
	ref    []byte
	attack string
	units  uint64 // benign units the session completes
}

func benignInput(app int, a *apps.App, input []byte, units uint64) (soloInput, error) {
	ref, err := reference(func(k *kernelsim.Kernel) (*kernelsim.Process, error) { return a.Spawn(k, input) })
	return soloInput{app: app, input: input, ref: ref, units: units}, err
}

// solo runs one session: spawn, KernelModule.Protect, Kernel.Run with the
// module's interceptors, then the verdict check.
func (b *bench) solo(an *harness.Analysis, in soloInput, pol guard.Policy) error {
	ph := b.ph
	sess := b.sp.begin("session", noSpan)
	c0, t0 := cpuTime(), time.Now()
	k := kernelsim.New()
	p, err := an.App.Spawn(k, in.input)
	if err != nil {
		return err
	}
	km := guard.InstallModule(k)
	sp := b.sp.begin("guard.Protect", sess)
	g, err := km.Protect(p, an.OCFG, an.ITC, pol)
	b.sp.end(sp)
	if err != nil {
		return err
	}
	rs := b.sp.begin("kernelsim.Run", sess)
	s := b.newSession(k, rs, in.attack != "")
	s.wrap(p.CPU, tap{g: g, p: p, lookup: an.ITC.Lookup, sink: func() *ipt.ToPA { return g.Tracer.Out }})
	r0 := time.Now()
	st, runErr := k.Run(p, maxInstrs)
	runDur := time.Since(r0)
	b.sp.end(rs)
	km.Shutdown()
	wall, cpuUsed := time.Since(t0), cpuTime()-c0
	b.sp.end(sess)
	b.liveHeap()
	if runErr != nil {
		return fmt.Errorf("protected run of %s: %w", p.Name, runErr)
	}
	if err := s.reconcile(); err != nil {
		return err
	}
	ph.wall += wall
	ph.cpu += cpuUsed
	ph.exec += runDur - s.gate
	ph.instrs += p.CPU.Instrs
	ph.stats.Merge(&g.Stats)

	reports := km.ReportsSnapshot()
	if in.attack != "" {
		reason := ""
		if !st.Killed || len(reports) == 0 {
			reason = fmt.Sprintf("%s exploit against %s not killed: %v", in.attack, p.Name, st)
		}
		b.verdict(reason, 0)
	} else {
		b.verdict(benignOutcome(p, st, in.ref, reports), in.units)
	}
	if b.sp.on {
		b.replaySession(s)
	}
	return nil
}

// serverMix is the server-mix and cold-start workloads: one client runs
// server sessions back to back. Trained, every 8th session is an exploit
// against vulnd; cold-start analyzes but runs no training replays, so
// labels come only from the static ITC-CFG.
type serverMix struct {
	seed    int64
	trained bool
	apps    []*apps.App // servers, then vulnd when trained
	servers int
	benign  []soloInput
	attacks []soloInput
	an      []*harness.Analysis
}

func newServerMix(seed int64, exim, trained bool) (*serverMix, error) {
	w := &serverMix{seed: seed, trained: trained, apps: []*apps.App{apps.Nginx(), apps.Vsftpd(), apps.OpenSSH()}}
	if exim {
		w.apps = append(w.apps, apps.Exim())
	}
	w.servers = len(w.apps)
	// Benign pool, interleaved so consecutive sessions change server.
	for i := 0; i < serverPool*w.servers; i++ {
		a := w.apps[i%w.servers]
		in, err := benignInput(i%w.servers, a, a.MakeInput(sessionScale, inputSeed(seed, i)), sessionScale)
		if err != nil {
			return nil, err
		}
		w.benign = append(w.benign, in)
	}
	if !trained {
		return w, nil
	}
	vulnd := apps.Vulnd()
	w.apps = append(w.apps, vulnd)
	as, err := vulnd.Load()
	if err != nil {
		return nil, err
	}
	builders := []struct {
		name  string
		build func(*module.AddressSpace) ([]byte, error)
	}{
		{"rop", attack.BuildROPWrite},
		{"srop", attack.BuildSROP},
		{"ret2lib", attack.BuildRet2Lib},
		{"history-flush", func(as *module.AddressSpace) ([]byte, error) { return attack.BuildHistoryFlush(as, 48) }},
	}
	for _, bl := range builders {
		payload, err := bl.build(as)
		if err != nil {
			return nil, fmt.Errorf("building %s payload: %w", bl.name, err)
		}
		w.attacks = append(w.attacks, soloInput{app: w.servers, input: payload, attack: bl.name})
	}
	return w, nil
}

func (w *serverMix) setup(b *bench) error {
	r := harness.NewRunner()
	r.Seed = w.seed
	if !w.trained {
		r.TrainRuns = 0 // Train then only publishes the static labels
	}
	ans, err := b.analyzeAll(r, w.apps)
	w.an = ans
	return err
}

func (w *serverMix) measure(b *bench, seconds float64) error {
	return b.closedLoop(seconds, func(i int) error { return w.op(b, i) })
}

// op runs the i-th session.
func (w *serverMix) op(b *bench, i int) error {
	var in soloInput
	if w.attacks != nil && i%8 == 7 {
		in = w.attacks[(i/8)%len(w.attacks)]
	} else {
		in = w.benign[(i-i/8)%len(w.benign)]
	}
	return b.solo(w.an[in.app], in, guard.DefaultPolicy())
}

// analyzeAll runs the offline phase — analysis, training, label
// publication — for each app.
func (b *bench) analyzeAll(r *harness.Runner, list []*apps.App) ([]*harness.Analysis, error) {
	b.artifactBytes = 0
	var ans []*harness.Analysis
	for _, a := range list {
		an, err := b.analyze(r, a)
		if err != nil {
			return nil, err
		}
		if err := b.train(r, an); err != nil {
			return nil, err
		}
		b.artifactBytes += uint64(an.ITC.Artifact().Size())
		ans = append(ans, an)
	}
	return ans, nil
}

// transcodeAsync is the transcode-async workload: transcoded sessions of
// 100 to 128 frames under the asynchronous checking pipeline with one
// worker, so the traced process and its worker fit the two cores.
type transcodeAsync struct {
	seed  int64
	app   *apps.App
	pool  []soloInput
	an    *harness.Analysis
	async guard.Policy
}

func newTranscodeAsync(seed int64) (*transcodeAsync, error) {
	w := &transcodeAsync{seed: seed, app: apps.Transcoded(), async: guard.DefaultPolicy()}
	w.async.Async = true
	w.async.AsyncWorkers = 1
	rng := rand.New(rand.NewSource(inputSeed(seed, 0)))
	for i := 0; i < poolSize; i++ {
		frames := 100 + rng.Intn(29)
		in, err := benignInput(0, w.app, w.app.MakeInput(frames, 0), uint64(frames))
		if err != nil {
			return nil, err
		}
		w.pool = append(w.pool, in)
	}
	return w, nil
}

func (w *transcodeAsync) setup(b *bench) error {
	r := harness.NewRunner()
	r.Seed = w.seed
	ans, err := b.analyzeAll(r, []*apps.App{w.app})
	if err != nil {
		return err
	}
	w.an = ans[0]
	return nil
}

func (w *transcodeAsync) measure(b *bench, seconds float64) error {
	return b.closedLoop(seconds, func(i int) error { return w.op(b, i) })
}

// op runs the i-th session.
func (w *transcodeAsync) op(b *bench, i int) error {
	return b.solo(w.an, w.pool[i%len(w.pool)], w.async)
}

// multicorePreempt is the multicore-preempt workload: one round protects
// signald, threadd and nginx together under the preemptive multi-core
// scheduler, so their checks run over demultiplexed per-thread windows.
type multicorePreempt struct {
	seed   int64
	apps   []*apps.App
	rounds []mcRound
	an     []*harness.Analysis
}

// mcRound is one round's inputs and reference outputs, per app.
type mcRound struct {
	inputs, refs [][]byte
}

const (
	mcCores   = 2
	mcQuantum = 400
	mcScale   = 30
)

func newMulticorePreempt(seed int64) (*multicorePreempt, error) {
	w := &multicorePreempt{seed: seed, apps: []*apps.App{apps.Signald(), apps.Threadd(), apps.Nginx()}}
	for i := 0; i < serverPool; i++ {
		var rd mcRound
		for j, a := range w.apps {
			rd.inputs = append(rd.inputs, a.MakeInput(mcScale, inputSeed(seed, i*len(w.apps)+j)))
		}
		refs, err := w.references(rd.inputs)
		if err != nil {
			return nil, err
		}
		rd.refs = refs
		w.rounds = append(w.rounds, rd)
	}
	return w, nil
}

func (w *multicorePreempt) setup(b *bench) error {
	r := harness.NewRunner()
	r.Seed = w.seed
	ans, err := b.analyzeAll(r, w.apps)
	w.an = ans
	return err
}

func (w *multicorePreempt) measure(b *bench, seconds float64) error {
	return b.closedLoop(seconds, func(i int) error { return w.op(b, i) })
}

// op runs the i-th round: every process protected, all scheduled
// together, each checked against its unprotected reference.
func (w *multicorePreempt) op(b *bench, i int) error {
	rd := w.rounds[i%len(w.rounds)]
	ph := b.ph
	sess := b.sp.begin("session", noSpan)
	c0, t0 := cpuTime(), time.Now()
	k := kernelsim.New()
	km := guard.InstallModule(k)
	if err := km.EnableMulticore(mcCores); err != nil {
		return err
	}
	procs := make([]*kernelsim.Process, len(w.an))
	guards := make([]*guard.Guard, len(w.an))
	taps := map[*kernelsim.Process]tap{}
	s := b.newSession(k, noSpan, false)
	sp := b.sp.begin("guard.ProtectMulticore", sess)
	for j, an := range w.an {
		p, err := an.App.Spawn(k, rd.inputs[j])
		if err != nil {
			return err
		}
		g, err := km.ProtectMulticore(p, an.OCFG, an.ITC, guard.DefaultPolicy())
		if err != nil {
			return err
		}
		t := tap{g: g, p: p, lookup: an.ITC.Lookup, sink: func() *ipt.ToPA {
			if out := km.ThreadSink(p.CurrentThread()); out != nil {
				return out
			}
			return g.Tracer.Out
		}}
		s.wrap(p.CPU, t)
		procs[j], guards[j], taps[p] = p, g, t
	}
	b.sp.end(sp)
	if b.sp.on {
		s.cores = &coreRecorder{}
		km.InjectCoreFaults(s.cores)
	}
	moduleSwitch := k.OnCoreSwitch
	k.OnCoreSwitch = func(core int, p *kernelsim.Process, t *kernelsim.Thread) {
		if s.cores != nil {
			s.cores.cur = core
		}
		moduleSwitch(core, p, t)
		// Threads cloned during the run get their tap before their first
		// slice.
		if tp, ok := taps[p]; ok {
			s.wrap(t.CPU, tp)
		}
	}
	rs := b.sp.begin("kernelsim.RunMulticore", sess)
	s.run = rs
	r0 := time.Now()
	sts, runErr := k.RunMulticore(procs, mcCores, mcQuantum, maxInstrs)
	runDur := time.Since(r0)
	b.sp.end(rs)
	if s.cores != nil {
		s.cores.off = true
	}
	km.FlushMulticore()
	km.Shutdown()
	wall, cpuUsed := time.Since(t0), cpuTime()-c0
	b.sp.end(sess)
	b.liveHeap()
	if runErr != nil {
		return fmt.Errorf("multicore run: %w", runErr)
	}
	if len(sts) != len(procs) {
		return fmt.Errorf("multicore run: %d statuses for %d processes", len(sts), len(procs))
	}
	if err := s.reconcile(); err != nil {
		return err
	}
	ph.wall += wall
	ph.cpu += cpuUsed
	ph.exec += runDur - s.gate
	for j, p := range procs {
		for _, t := range p.Threads {
			ph.instrs += t.CPU.Instrs
		}
		ph.stats.Merge(&guards[j].Stats)
	}
	if d := km.DemuxStats(); d != nil {
		ph.dmx.forwarded += d.ForwardedBytes
		ph.dmx.stripped += d.StrippedBytes
		ph.dmx.resyncs += uint64(d.Resyncs)
		ph.dmx.unmarked += uint64(d.UnmarkedLosses)
	}
	reports := km.ReportsSnapshot()
	for j, p := range procs {
		b.verdict(benignOutcome(p, sts[j], rd.refs[j], reports), commands(p.Name, rd.inputs[j]))
	}
	if b.sp.on {
		b.replaySession(s)
	}
	return nil
}

// commands counts the input units of one multicore process: a request
// line for nginx, a one-byte command for signald and threadd.
func commands(app string, input []byte) uint64 {
	if app == "nginx" {
		return uint64(bytes.Count(input, []byte{'\n'}))
	}
	return uint64(len(input))
}

// references runs a round unprotected: the scheduler interleaves the same
// instruction streams identically, so each process's stdout is the
// reference its protected run must reproduce.
func (w *multicorePreempt) references(inputs [][]byte) ([][]byte, error) {
	k := kernelsim.New()
	procs := make([]*kernelsim.Process, len(w.apps))
	for j, a := range w.apps {
		p, err := a.Spawn(k, inputs[j])
		if err != nil {
			return nil, err
		}
		procs[j] = p
	}
	sts, err := k.RunMulticore(procs, mcCores, mcQuantum, maxInstrs)
	if err != nil {
		return nil, err
	}
	refs := make([][]byte, len(procs))
	for j, p := range procs {
		if j >= len(sts) || !sts[j].Exited || sts[j].Code != 0 {
			return nil, fmt.Errorf("unprotected multicore reference of %s did not exit cleanly", p.Name)
		}
		refs[j] = p.Stdout
	}
	return refs, nil
}

package harness

// Differential oracle driver: runs identical workloads and identical
// trace bytes through the production hybrid checker (internal/guard +
// internal/trace/ipt) and the naive reference pipeline
// (internal/oracle), asserting verdict-, classification- and
// statistics-level equivalence. The two pipelines share no decode or
// check code (internal/oracle's isolation test enforces that), so any
// divergence is a real bug in one of them.

import (
	"bytes"
	"fmt"
	"reflect"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/faults"
	"flowguard/internal/fuzz"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/oracle"
	"flowguard/internal/progen"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// oraclePolicy mirrors the checking-relevant production policy knobs
// into the oracle's policy (endpoints and cost modeling are driver
// concerns the oracle never sees). The enum value equivalence it relies
// on is asserted by TestDegradedModeEnumsAgree.
func oraclePolicy(p guard.Policy) oracle.Policy {
	return oracle.Policy{
		PktCount:            p.PktCount,
		CredRatio:           p.CredRatio,
		RequireModuleStride: p.RequireModuleStride,
		CredMinCount:        p.CredMinCount,
		PathSensitive:       p.PathSensitive,
		NaiveFullDecode:     p.NaiveFullDecode,
		OnDegraded:          oracle.DegradedMode(p.OnDegraded),
	}
}

// DiffFixture is one application prepared for differential checking:
// production analysis (O-CFG + trained ITC-CFG) and the reference
// ITC-CFG trained from the very same trace bytes, plus canonical
// workloads.
type DiffFixture struct {
	An  *Analysis
	Ref *oracle.Ref
	// ROP / SROP are exploit payloads (nil for generated programs that
	// have no crafted attack).
	ROP, SROP []byte
	// Benign is the reference clean workload; BenignTrace its raw IPT
	// stream captured during fixture setup.
	Benign      []byte
	BenignTrace []byte
}

// DiffTrain analyzes the app and trains the production ITC-CFG and the
// reference graph from identical raw trace bytes, so any later labeling
// divergence is a derivation bug rather than a data difference.
func (r *Runner) DiffTrain(a *apps.App) (*DiffFixture, error) {
	an, err := r.Analyze(a)
	if err != nil {
		return nil, err
	}
	ref := oracle.NewRef(an.OCFG)
	for i := 0; i < r.TrainRuns; i++ {
		input := a.MakeInput(r.Scale, r.Seed+int64(100+i))
		raw, err := r.traceBytes(a, input)
		if err != nil {
			return nil, err
		}
		evs, err := ipt.DecodeFast(raw)
		if err != nil {
			return nil, err
		}
		an.ITC.ObserveWindow(ipt.ExtractTIPs(evs))
		if err := ref.ObserveTrace(raw); err != nil {
			return nil, err
		}
	}
	an.ITC.RebuildCache()
	ref.Rebuild()

	benign := a.MakeInput(r.Scale, r.Seed)
	btr, err := r.traceBytes(a, benign)
	if err != nil {
		return nil, err
	}
	return &DiffFixture{An: an, Ref: ref, Benign: benign, BenignTrace: btr}, nil
}

// OracleFixture prepares the vulnerable server with exploit payloads —
// the canonical differential workload.
func (r *Runner) OracleFixture() (*DiffFixture, error) {
	fx, err := r.DiffTrain(apps.Vulnd())
	if err != nil {
		return nil, err
	}
	as, err := fx.An.App.Load()
	if err != nil {
		return nil, err
	}
	if fx.ROP, err = attack.BuildROPWrite(as); err != nil {
		return nil, err
	}
	if fx.SROP, err = attack.BuildSROP(as); err != nil {
		return nil, err
	}
	return fx, nil
}

// DiffOutcome is the result of one differential run.
type DiffOutcome struct {
	Checks         int
	Killed, Exited bool
	// GuardViolation reports any production check returned a violation.
	GuardViolation bool
	// Healths collects the production health classification per check
	// (the truncation property asserts over these).
	Healths []guard.TraceHealth
	// Divergences lists every field where the two pipelines disagreed.
	Divergences []string
}

// compareResults diffs the per-check result fields both pipelines must
// agree on (cycle meters are production-only cost modeling).
func compareResults(check int, g guard.Result, o oracle.Result) (divs []string) {
	add := func(field string, gv, ov any) {
		divs = append(divs, fmt.Sprintf("check %d %s: guard=%v oracle=%v", check, field, gv, ov))
	}
	if uint8(g.Verdict) != uint8(o.Verdict) {
		add("verdict", g.Verdict, o.Verdict)
	}
	if g.TIPs != o.TIPs {
		add("tips", g.TIPs, o.TIPs)
	}
	if g.LowCredit != o.LowCredit {
		add("low-credit", g.LowCredit, o.LowCredit)
	}
	if g.UsedSlowPath != o.UsedSlowPath {
		add("used-slow-path", g.UsedSlowPath, o.UsedSlowPath)
	}
	if uint8(g.Health) != uint8(o.Health) {
		add("health", g.Health, o.Health)
	}
	if g.Degraded != o.Degraded {
		add("degraded", g.Degraded, o.Degraded)
	}
	if g.Retries != o.Retries {
		add("retries", g.Retries, o.Retries)
	}
	if want := o.FlowInstrs * ipt.CyclesPerDecodedInstr; g.SlowCycles != want {
		add("slow-cycles", g.SlowCycles, want)
	}
	return divs
}

// oracleTwins calls fn for every oracle.Stats field of o, in declaration
// order, with the same-named field of into (a *guard.Stats or another
// *oracle.Stats) — the by-name pairing behind compareStats and
// addOracleStats. TestStatsOracleTwins pins that every oracle counter
// has a uint64 twin in guard.Stats, and which guard counters the oracle
// deliberately does not model.
func oracleTwins(into any, o *oracle.Stats, fn func(name string, in, ov reflect.Value)) {
	iv, ov := reflect.ValueOf(into).Elem(), reflect.ValueOf(o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		name := ov.Type().Field(i).Name
		fn(name, iv.FieldByName(name), ov.Field(i))
	}
}

// compareStats diffs every oracle.Stats counter against its guard.Stats
// twin.
func compareStats(g *guard.Stats, o *oracle.Stats) (divs []string) {
	oracleTwins(g, o, func(name string, gv, ov reflect.Value) {
		if gv.Uint() != ov.Uint() {
			divs = append(divs, fmt.Sprintf("stats %s: guard=%d oracle=%d", name, gv.Uint(), ov.Uint()))
		}
	})
	return divs
}

// diffProtectedRun executes the app on input with both pipelines
// attached to the same ToPA. It mirrors KernelModule.Protect's MSR
// programming but installs its own endpoint interceptors so both
// checkers run on every endpoint, in a fixed order (the guard's check
// flushes the tracer; the oracle then reads the identical buffer state).
func diffProtectedRun(fx *DiffFixture, input []byte, pol guard.Policy, plan *faults.Plan) (*DiffOutcome, error) {
	k := kernelsim.New()
	p, err := fx.An.App.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	topa := ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion)
	tr := ipt.NewTracer(topa)
	ctl := ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlCR3Filter | ipt.CtlToPA
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl); err != nil {
		return nil, err
	}
	if err := tr.WriteMSR(ipt.MSRRTITCR3Match, p.CR3); err != nil {
		return nil, err
	}
	tr.SetCR3(p.CR3)
	if plan != nil {
		tr.Fault = plan
	}
	if p.CPU.Branch != nil {
		p.CPU.Branch = trace.MultiSink{p.CPU.Branch, tr}
	} else {
		p.CPU.Branch = tr
	}

	g := guard.New(p.AS, fx.An.OCFG, fx.An.ITC, tr, pol)
	if pol.Async {
		ap := guard.NewAsyncPool(pol.AsyncWorkers)
		defer ap.Close()
		if plan != nil {
			ap.InjectFaults(plan)
		}
		g.EnableAsync(ap)
	}
	o := oracle.New(p.AS, fx.An.OCFG, fx.Ref, topa, oraclePolicy(pol))
	out := &DiffOutcome{}

	handler := func(cp *kernelsim.Process, sysno uint64) error {
		if cp.CR3 != p.CR3 {
			return nil
		}
		gres := g.Check()
		ores := o.Check()
		out.Checks++
		out.Healths = append(out.Healths, gres.Health)
		out.Divergences = append(out.Divergences, compareResults(out.Checks, gres, ores)...)
		if gres.Verdict == guard.VerdictViolation {
			out.GuardViolation = true
			k.Kill(cp, kernelsim.SIGKILL)
			return kernelsim.ErrKilled
		}
		return nil
	}
	eps := pol.Endpoints
	if len(eps) == 0 {
		eps = guard.DefaultEndpoints()
	}
	for _, sysno := range eps {
		k.Intercept(sysno, handler)
	}
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	out.Killed, out.Exited = st.Killed, st.Exited
	g.AsyncFlushStats()
	out.Divergences = append(out.Divergences, compareStats(&g.Stats, &o.Stats)...)
	return out, nil
}

// diffRawStream replays a raw packet stream into a fresh ToPA in chunks,
// checking with both pipelines after every chunk — the vehicle for
// mutated, truncated and fuzz-generated traces that no real execution
// produces.
func diffRawStream(fx *DiffFixture, pol guard.Policy, raw []byte, chunks, region int) (*DiffOutcome, error) {
	g, o, topa, err := newDiffPair(fx, pol, region)
	if err != nil {
		return nil, err
	}
	if pol.Async {
		ap := guard.NewAsyncPool(pol.AsyncWorkers)
		defer ap.Close()
		g.EnableAsync(ap)
	}
	return replayStream(g, o, topa, raw, chunks), nil
}

// diffFleetStream is the fleet workload class of the soak: an
// artifact-backed parent guard replays a benign stream to quiescence
// (banking approvals), then a child built by ForkGuard replays its own
// stream — benign or attacked — from a fresh window, compared against
// a fresh oracle pre-seeded with the parent's approvals. This is the
// fork-inheritance conformance contract (see ForkGuard) exercised at
// soak scale: the child's verdicts must match an oracle that inherited
// the same trained state, and an injected edge must still be caught
// despite the inheritance.
func diffFleetStream(fx *DiffFixture, pol guard.Policy, parentRaw, childRaw []byte, chunks int) (*DiffOutcome, error) {
	region := len(parentRaw) + guard.DefaultToPARegion
	if len(childRaw) > len(parentRaw) {
		region = len(childRaw) + guard.DefaultToPARegion
	}
	parent, po, ptopa, err := newDiffPair(fx, pol, region)
	if err != nil {
		return nil, err
	}
	parent.UseArtifact(fx.An.ITC.Artifact())
	var ap *guard.AsyncPool
	if pol.Async {
		ap = guard.NewAsyncPool(pol.AsyncWorkers)
		defer ap.Close()
		parent.EnableAsync(ap)
	}
	out := replayStream(parent, po, ptopa, parentRaw, chunks)

	ctopa := ipt.NewToPA(region, region)
	ctr := ipt.NewTracer(ctopa)
	if err := ctr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, err
	}
	child := guard.ForkGuard(parent, nil, ctr)
	if ap != nil {
		child.EnableAsync(ap)
	}
	co := oracle.New(fx.An.OCFG.AS, fx.An.OCFG, fx.Ref, ctopa, oraclePolicy(pol))
	co.AdoptApprovals(po)
	cout := replayStream(child, co, ctopa, childRaw, chunks)

	out.Checks += cout.Checks
	out.GuardViolation = out.GuardViolation || cout.GuardViolation
	out.Healths = append(out.Healths, cout.Healths...)
	out.Divergences = append(out.Divergences, cout.Divergences...)
	return out, nil
}

// newDiffPair builds a production guard and a reference oracle over one
// shared fresh ToPA (no process attached — raw-stream replay).
func newDiffPair(fx *DiffFixture, pol guard.Policy, region int) (*guard.Guard, *oracle.Oracle, *ipt.ToPA, error) {
	if region < ipt.PSBSize {
		region = guard.DefaultToPARegion
	}
	topa := ipt.NewToPA(region, region)
	tr := ipt.NewTracer(topa)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, nil, nil, err
	}
	as := fx.An.OCFG.AS
	g := guard.New(as, fx.An.OCFG, fx.An.ITC, tr, pol)
	o := oracle.New(as, fx.An.OCFG, fx.Ref, topa, oraclePolicy(pol))
	return g, o, topa, nil
}

// replayStream writes raw into the buffer in chunks, checking with both
// pipelines after each.
func replayStream(g *guard.Guard, o *oracle.Oracle, topa *ipt.ToPA, raw []byte, chunks int) *DiffOutcome {
	if chunks < 1 {
		chunks = 1
	}
	out := &DiffOutcome{}
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(raw)/chunks, (c+1)*len(raw)/chunks
		topa.Write(raw[lo:hi])
		gres := g.Check()
		ores := o.Check()
		out.Checks++
		out.Healths = append(out.Healths, gres.Health)
		out.Divergences = append(out.Divergences, compareResults(out.Checks, gres, ores)...)
		if gres.Verdict == guard.VerdictViolation {
			out.GuardViolation = true
		}
	}
	out.Divergences = append(out.Divergences, compareStats(&g.Stats, &o.Stats)...)
	return out
}

// injectEdge widens every IP-bearing packet of a well-formed stream to
// full width (so each is self-contained and retargeting one cannot skew
// later compressed reconstructions) and then points the pick-th TIP
// from the end at target, yielding a trace whose flow takes one edge
// the program never had.
func injectEdge(raw []byte, pick int, target uint64) ([]byte, bool) {
	pkts, _, err := oracle.ParsePackets(raw)
	if err != nil {
		return nil, false
	}
	var tips []int
	for i := range pkts {
		switch pkts[i].Kind {
		case oracle.PkTIP, oracle.PkTIPPGE, oracle.PkTIPPGD, oracle.PkFUP:
			pkts[i].IPB = 3
		}
		if pkts[i].Kind == oracle.PkTIP && !pkts[i].Ctx {
			tips = append(tips, i)
		}
	}
	if pick < 0 || len(tips) < pick+2 {
		return nil, false
	}
	pkts[tips[len(tips)-1-pick]].IP = target
	return oracle.Serialize(pkts), true
}

// jopTarget returns an executable-code address that is neither an
// ITC-CFG node in the production graph nor in the reference graph — the
// landing pad of a synthetic JOP-style hijack.
func jopTarget(fx *DiffFixture) uint64 {
	as := fx.An.OCFG.AS
	for addr := as.Exec.CodeBase + 7; addr < as.Exec.CodeEnd(); addr++ {
		if !fx.Ref.HasNode(addr) && !fx.An.ITC.HasNode(addr) {
			return addr
		}
	}
	return as.Exec.CodeEnd() - 1
}

// psbOffsets lists every complete PSB offset in raw (the truncation
// property cuts prefixes at these points).
func psbOffsets(raw []byte) []int {
	psb := bytes.Repeat([]byte{0x02, 0x82}, 8)
	var out []int
	for i := 0; i+len(psb) <= len(raw); {
		j := bytes.Index(raw[i:], psb)
		if j < 0 {
			break
		}
		out = append(out, i+j)
		i += j + 2
	}
	return out
}

// vulndCorpus runs a short coverage-guided campaign against the
// vulnerable server and returns its corpus — inputs with shapes no
// hand-written workload generator produces.
func vulndCorpus(maxExecs int) [][]byte {
	a := apps.Vulnd()
	exec := func(input []byte, cov []byte) error {
		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			return err
		}
		p.CPU.Branch = fuzz.CoverageSink(cov)
		_, err = k.Run(p, 3_000_000)
		return err
	}
	seeds := [][]byte{
		[]byte("G /index\n"),
		[]byte("P 16\n"),
		[]byte("H /health\n"),
	}
	f := fuzz.New(exec, seeds, fuzz.DefaultConfig())
	f.Run(maxExecs)
	return f.Corpus()
}

// progenFixtures generates and diff-trains n random programs, each with
// its own independent reference graph.
func (r *Runner) progenFixtures(n int) ([]*DiffFixture, error) {
	out := make([]*DiffFixture, 0, n)
	for i := 0; i < n; i++ {
		pr, err := progen.Generate(progen.DefaultConfig(int64(1000 + 7*i)))
		if err != nil {
			return nil, err
		}
		a := &apps.App{
			Name: fmt.Sprintf("progen-%d", i),
			Exec: pr.Exec,
			Libs: pr.Libs,
			MakeInput: func(scale int, seed int64) []byte {
				return nil // generated programs take no stdin
			},
		}
		fx, err := r.DiffTrain(a)
		if err != nil {
			return nil, err
		}
		out = append(out, fx)
	}
	return out, nil
}

// OracleSoakRow aggregates one degraded mode's slice of a differential
// soak.
type OracleSoakRow struct {
	Mode guard.DegradedMode
	Runs int
	// ProcRuns executed a real process; StreamRuns replayed a raw
	// stream.
	ProcRuns, StreamRuns int
	// Attacks / Detected count hijacked runs (exploit payloads and
	// injected-edge streams) and how many the production guard flagged.
	Attacks, Detected int
	Checks            uint64
	// Faults is the number of injected stream faults (the trace damage,
	// which a seed replays exactly); WorkerFaults the async worker
	// stalls and crashes drawn, whose count follows goroutine scheduling
	// (see ChaosRow).
	Faults, WorkerFaults uint64
	// DivergenceCount is the number of field-level disagreements;
	// Panics and Errors the runs that blew up. All must be zero.
	DivergenceCount int
	Panics, Errors  int
	// Samples holds the first few divergence/error descriptions.
	Samples []string
}

func (r OracleSoakRow) String() string {
	return fmt.Sprintf("%-15s runs=%-5d proc=%-4d stream=%-4d attacks=%3d/%-3d checks=%-6d faults=%-5d diverged=%d panics=%d errors=%d worker-faults=%d",
		r.Mode, r.Runs, r.ProcRuns, r.StreamRuns, r.Detected, r.Attacks,
		r.Checks, r.Faults, r.DivergenceCount, r.Panics, r.Errors, r.WorkerFaults)
}

func (r *OracleSoakRow) note(s string) {
	if len(r.Samples) < 5 {
		r.Samples = append(r.Samples, s)
	}
}

// OracleSoak drives n seeded differential runs across the three
// degraded modes and eight workload classes: benign and fuzz-corpus
// server traffic, ROP/SROP exploits, chaos-faulted runs, synthetic raw
// streams (injected edges and PSB truncations), generated progen
// programs, fleet fork-inheritance replays (artifact-backed parents,
// forked children), preempted multicore runs (benign and ROP workloads
// time-sliced across shared trace units with noise neighbors), and
// preempted signal/thread workloads (signald's handler-interrupted
// windows, threadd's per-thread demuxed streams). A healthy repository
// reports zero divergences, panics and errors.
func (r *Runner) OracleSoak(n int) ([]OracleSoakRow, error) {
	fx, err := r.OracleFixture()
	if err != nil {
		return nil, err
	}
	progs, err := r.progenFixtures(3)
	if err != nil {
		return nil, err
	}
	preempt, err := r.preemptFixtures()
	if err != nil {
		return nil, err
	}
	corpus := vulndCorpus(300)
	jop := jopTarget(fx)
	psbs := psbOffsets(fx.BenignTrace)

	modes := []guard.DegradedMode{guard.FailClosed, guard.FailOpen, guard.SlowPathRetry}
	rows := make([]OracleSoakRow, len(modes))
	for i := range rows {
		rows[i].Mode = modes[i]
	}
	for seed := 0; seed < n; seed++ {
		c := soakCellOf(seed)
		row := &rows[c.mode]
		pol := guard.DefaultPolicy()
		pol.OnDegraded = modes[c.mode]
		// Half the seeds run the production guard asynchronously: the
		// pipeline's verdict transparency means every comparison below
		// must still hold bit-for-bit against the synchronous oracle.
		pol.Async = c.async
		row.Runs++
		func() {
			defer func() {
				if p := recover(); p != nil {
					row.Panics++
					row.note(fmt.Sprintf("seed %d: panic: %v", seed, p))
				}
			}()
			r.soakOne(fx, progs, preempt, corpus, jop, psbs, seed, pol, row)
		}()
	}
	return rows, nil
}

// preemptFixtures diff-trains the signal- and thread-heavy servers for
// the preempted workload class (class 7): signald interrupts its own
// checked windows with handler entries and sigreturns; threadd fans
// endpoint checks out across cloned threads sharing one address space.
func (r *Runner) preemptFixtures() ([]*DiffFixture, error) {
	out := make([]*DiffFixture, 0, 2)
	for _, name := range []string{"signald", "threadd"} {
		a, err := apps.ByName(name)
		if err != nil {
			return nil, err
		}
		fx, err := r.DiffTrain(a)
		if err != nil {
			return nil, err
		}
		out = append(out, fx)
	}
	return out, nil
}

// mcSoakRun folds one multicore differential run into the soak's
// DiffOutcome shape, adding the transport-cleanliness assertion: these
// runs inject no faults, so any demux resynchronization or attribution
// loss is itself a divergence.
func mcSoakRun(fx *DiffFixture, input []byte, pol guard.Policy,
	cores int, quantum uint64, noise [][]byte) (*DiffOutcome, error) {
	mo, err := diffMulticoreRun(fx, input, pol, cores, quantum, noise)
	if err != nil {
		return nil, err
	}
	if mo.Demux != nil && (mo.Demux.Resyncs != 0 || mo.Demux.UnmarkedLosses != 0) {
		mo.Divergences = append(mo.Divergences, fmt.Sprintf(
			"fault-free multicore run: demux Resyncs=%d UnmarkedLosses=%d",
			mo.Demux.Resyncs, mo.Demux.UnmarkedLosses))
	}
	return &mo.DiffOutcome, nil
}

// soakCell is what a soak seed selects: the OnDegraded mode (an index
// into OracleSoak's modes), the workload class (soakOne's switch), the
// variant v choosing inputs within the class (v%2 alternates benign and
// hijacked inputs in several classes), and whether the production guard
// runs the async pipeline.
type soakCell struct {
	mode, class, v int
	async          bool
}

// soakCellOf maps a seed to its cell. Modes cycle with period 3, which
// shares a factor with the eight workload classes, so the mode period is
// divided out and the class cycles per mode: every (mode, class) pair
// occurs every 24 seeds. Async is the low bit of v's Gray code, v^(v>>1):
// unlike the seed's parity it depends on neither the mode nor the class,
// and unlike v%2 it is not the benign/hijacked choice, so each
// (mode, class) runs benign and hijacked inputs both with and without the
// pipeline within four variants, the first 96 seeds.
func soakCellOf(seed int) soakCell {
	k := seed / 3
	v := k / 8
	return soakCell{mode: seed % 3, class: k % 8, v: v, async: (v^v>>1)&1 == 0}
}

// soakOne runs a single soak seed, folding its outcome into row.
func (r *Runner) soakOne(fx *DiffFixture, progs, preempt []*DiffFixture, corpus [][]byte,
	jop uint64, psbs []int, seed int, pol guard.Policy, row *OracleSoakRow) {
	var (
		out      *DiffOutcome
		err      error
		isAttack bool
		stream   bool
	)
	c := soakCellOf(seed)
	v := c.v
	switch c.class {
	case 0: // benign traffic, alternating generated and fuzz-corpus inputs
		input := fx.Benign
		if len(corpus) > 0 && v%2 == 1 {
			input = corpus[v%len(corpus)]
		}
		out, err = diffProtectedRun(fx, input, pol, nil)
	case 1: // exploit payloads
		isAttack = true
		input := fx.ROP
		if v%2 == 1 {
			input = fx.SROP
		}
		out, err = diffProtectedRun(fx, input, pol, nil)
	case 2: // chaos-faulted runs, benign and hijacked alternating
		plan := faults.FromSeed(int64(seed))
		input := fx.Benign
		if v%2 == 1 {
			isAttack = true
			input = fx.ROP
		}
		out, err = diffProtectedRun(fx, input, pol, plan)
		if out != nil {
			damage, worker := faultCounts(plan)
			row.Faults += damage
			row.WorkerFaults += worker
		}
	case 3: // synthetic raw streams
		stream = true
		if v%2 == 0 {
			isAttack = true
			raw, ok := injectEdge(fx.BenignTrace, 1+v%8, jop)
			if !ok {
				err = fmt.Errorf("seed %d: injectEdge failed", seed)
				break
			}
			out, err = diffRawStream(fx, pol, raw, 1+v%7, len(raw))
		} else {
			p := psbs[v%len(psbs)]
			out, err = diffRawStream(fx, pol, fx.BenignTrace[p:], 1+v%7, guard.DefaultToPARegion)
		}
	case 4: // generated programs
		pfx := progs[v%len(progs)]
		out, err = diffProtectedRun(pfx, nil, pol, nil)
	case 5: // fleet fork-inheritance replays
		stream = true
		if v%2 == 0 {
			isAttack = true
			raw, ok := injectEdge(fx.BenignTrace, 1+v%8, jop)
			if !ok {
				err = fmt.Errorf("seed %d: injectEdge failed", seed)
				break
			}
			out, err = diffFleetStream(fx, pol, fx.BenignTrace, raw, 1+v%7)
		} else {
			out, err = diffFleetStream(fx, pol, fx.BenignTrace, fx.BenignTrace, 1+v%7)
		}
	case 6: // preempted multicore runs, benign and hijacked alternating
		input := fx.Benign
		if v%2 == 1 {
			isAttack = true
			input = fx.ROP
		}
		var noise [][]byte
		if v%3 != 0 {
			noise = [][]byte{fx.An.App.MakeInput(r.Scale/2+2, int64(seed+500))}
		}
		quanta := [...]uint64{120, 250, 400}
		out, err = mcSoakRun(fx, input, pol, 1+v%3, quanta[v%len(quanta)], noise)
	default: // preempted signal/thread workloads (handler windows, clones)
		pfx := preempt[v%len(preempt)]
		input := pfx.An.App.MakeInput(16+v%16, int64(seed))
		quanta := [...]uint64{120, 200, 300}
		out, err = mcSoakRun(pfx, input, pol, 1+v%3, quanta[v%len(quanta)], nil)
	}
	if err != nil {
		row.Errors++
		row.note(fmt.Sprintf("seed %d: %v", seed, err))
		return
	}
	if stream {
		row.StreamRuns++
	} else {
		row.ProcRuns++
	}
	row.Checks += uint64(out.Checks)
	if isAttack {
		row.Attacks++
		if out.GuardViolation {
			row.Detected++
		}
	}
	row.DivergenceCount += len(out.Divergences)
	for _, d := range out.Divergences {
		row.note(fmt.Sprintf("seed %d: %s", seed, d))
	}
}

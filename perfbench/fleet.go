package main

import (
	"fmt"
	"math/rand"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/harness"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// fleet-zipf sizing: the fleet of DESIGN.md §10 shrunk to a population
// whose per-process state stays resident, with the admission layer's
// default shape (harness.FleetConfig defaults). One driver, the
// benchmark's main goroutine: with two, the figures switched between two
// levels from run to run, as the host placed the virtual machine's two
// CPUs on one physical core or on two. harness.Fleet cannot be used as is:
// its drivers offer no hook around a single FleetPool.Do call, which is
// the blocked time measured.
const (
	fleetProcs      = 2000
	fleetTenants    = 64
	fleetShards     = 8
	fleetWorkers    = 4
	fleetChunk      = 2048 // trace bytes replayed per check event; per-region ToPA size
	fleetZipfS      = 1.2
	fleetForkEvery  = 500 // driver-local events between forks
	fleetForkBurst  = 4   // events a fresh child is driven for at once
	fleetTrainScale = 30
	fleetTraces     = 4 // recorded benign traces per binary
)

// fleetBinary is one protected binary: shared enforcement state plus the
// recorded benign traces its processes replay.
type fleetBinary struct {
	bin  *guard.Binary
	raws [][]byte
}

// fleetProc is one simulated process.
type fleetProc struct {
	tenant string
	fb     *fleetBinary
	raw    []byte // the recorded trace this process replays
	g      *guard.Guard
	topa   *ipt.ToPA
	cur    int
}

type fleetZipf struct {
	bins  []*fleetBinary
	pool  *guard.FleetPool
	procs []*fleetProc
	// shadows[i] is procs[i]'s shadow (see fleetShadowRef).
	shadows []*shadowProc
	sh      shadowRun
}

// setup analyzes and trains nginx, tar and dd, records benign traces of
// each binary and folds them into training before the artifact is taken,
// then builds the process population, its shadows and the admission pool.
func (w *fleetZipf) setup(b *bench) error {
	r := harness.NewRunner()
	r.Seed = b.cfg.seed
	r.Scale = fleetTrainScale
	w.bins = w.bins[:0]
	b.artifactBytes = 0
	for _, a := range []*apps.App{apps.Nginx(), apps.Tar(), apps.DD()} {
		an, err := b.analyze(r, a)
		if err != nil {
			return err
		}
		if err := b.train(r, an); err != nil {
			return err
		}
		fb := &fleetBinary{}
		for t := 0; t < fleetTraces; t++ {
			raw, err := recordTrace(a, a.MakeInput(r.Scale, inputSeed(r.Seed, t)))
			if err != nil {
				return err
			}
			evs, err := ipt.DecodeFast(raw)
			if err != nil {
				return err
			}
			an.ITC.ObserveWindow(ipt.ExtractTIPs(evs))
			fb.raws = append(fb.raws, raw)
		}
		an.ITC.RebuildCache()
		art := an.ITC.Artifact()
		b.artifactBytes += uint64(art.Size())
		fb.bin = guard.NewBinary(an.OCFG.AS, an.OCFG, art)
		w.bins = append(w.bins, fb)
	}
	var raws [][]byte
	for _, fb := range w.bins {
		raws = append(raws, fb.raws...)
	}
	w.sh = shadowRun{edges: newEdgeTable(raws)}
	w.pool = guard.NewFleetPool(fleetShards, fleetWorkers)
	w.procs, w.shadows = w.procs[:0], w.shadows[:0]
	rng := rand.New(rand.NewSource(inputSeed(b.cfg.seed, fleetTraces)))
	for i := 0; i < fleetProcs; i++ {
		// Block tenant assignment: the Zipf draw favours low indices, so
		// low-numbered tenants are the heavy hitters.
		tenant := fmt.Sprintf("tenant-%03d", i*fleetTenants/fleetProcs)
		fb := w.bins[i%len(w.bins)]
		raw := fb.raws[i/len(w.bins)%fleetTraces]
		// The fleet has been running for a while: each process starts at
		// a sync point somewhere in its trace, not all at the beginning.
		cur := max(ipt.Sync(raw, rng.Intn(len(raw))), 0)
		p, tr, err := newFleetProc(fb, raw, tenant, cur)
		if err != nil {
			return err
		}
		p.g = fb.bin.NewGuard(tr, guard.DefaultPolicy())
		w.procs = append(w.procs, p)
		w.shadows = append(w.shadows, newShadowProc(raw, cur))
	}
	return nil
}

// recordTrace runs a under a full-size trace unit and returns the stream.
func recordTrace(a *apps.App, input []byte) ([]byte, error) {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	tr := ipt.NewTracer(ipt.NewToPA(64 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		return nil, err
	}
	p.CPU.Branch = tr
	st, err := k.Run(p, maxInstrs)
	if err != nil {
		return nil, err
	}
	if !st.Exited {
		return nil, fmt.Errorf("recording %s: %v", a.Name, st)
	}
	tr.Flush()
	return tr.Out.Snapshot(), nil
}

// newFleetProc builds a process and its trace unit; the caller gives it a
// guard over the returned tracer.
func newFleetProc(fb *fleetBinary, raw []byte, tenant string, cur int) (*fleetProc, *ipt.Tracer, error) {
	topa := ipt.NewToPA(fleetChunk, fleetChunk)
	tr := ipt.NewTracer(topa)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		return nil, nil, err
	}
	return &fleetProc{tenant: tenant, fb: fb, raw: raw, topa: topa, cur: cur}, tr, nil
}

// fleetBlock is the number of events whose check times, wall time and
// CPU time are scaled by one median shadow step; each block's mean scaled
// check time is one per-operation mean.
const fleetBlock = 4096

// fleetRun is one drive's tallies.
type fleetRun struct {
	blocked, fast dist
	// unscaled is blocked at the host's speed, shadowSteps the shadow
	// steps.
	unscaled, shadowSteps dist
	events                uint64
	failed                uint64
	failures              []string
	doTime                time.Duration
	// wall and cpu sum the blocks' wall and CPU times, shadow steps
	// taken out, scaled to the reference speed (ns).
	wall, cpu float64
	// The current block: when and at what CPU time it started, its check
	// times, and its shadow steps with their total.
	blockT0     time.Time
	blockCPU0   time.Duration
	block       []fleetSample
	shadow      []float64
	blockShadow time.Duration
	// cal holds each block's median shadow step, opMeans its mean scaled
	// check time.
	cal     []float64
	opMeans []float64
	// kids merges the stats of forked children, which exit after their
	// burst.
	kids guard.Stats
}

// fleetSample is one timed FleetPool.Do call; fast is set when the check
// moved no slow or degraded counter.
type fleetSample struct {
	ns   uint64
	fast bool
}

// startBlock opens a block at the current time.
func (fr *fleetRun) startBlock() {
	fr.block, fr.shadow, fr.blockShadow = fr.block[:0], fr.shadow[:0], 0
	fr.blockCPU0, fr.blockT0 = cpuTime(), time.Now()
}

// endBlock scales the block's check times, wall time and CPU time by its
// median shadow step and adds them to the run's tallies.
func (fr *fleetRun) endBlock() {
	if len(fr.block) == 0 {
		return
	}
	wall, cpu := time.Since(fr.blockT0)-fr.blockShadow, cpuTime()-fr.blockCPU0-fr.blockShadow
	m := median(fr.shadow)
	scale := fleetShadowRef / m
	fr.wall += float64(wall) * scale
	fr.cpu += float64(cpu) * scale
	var sum float64
	for _, s := range fr.block {
		d := uint64(float64(s.ns) * scale)
		fr.unscaled.add(s.ns)
		fr.blocked.add(d)
		if s.fast {
			fr.fast.add(d)
		}
		sum += float64(d)
	}
	fr.cal = append(fr.cal, m)
	fr.opMeans = append(fr.opMeans, sum/float64(len(fr.block)))
}

func (w *fleetZipf) measure(b *bench, seconds float64) error {
	return w.drive(b, time.Now().Add(time.Duration(seconds*float64(time.Second))), samplesFor(0.99))
}

// measureEvents drives the fleet for at least n events, however long
// they take.
func (w *fleetZipf) measureEvents(b *bench, n int) error {
	return w.drive(b, time.Time{}, uint64(n))
}

// drive runs the closed loop until the deadline has passed and at least
// need events were offered: pick a process by Zipf rank, replay its next
// trace chunk, offer one check to the pool, step the process's shadow;
// every fleetForkEvery events, fork the picked process.
func (w *fleetZipf) drive(b *bench, deadline time.Time, need uint64) error {
	ph := b.ph
	fr := fleetRun{
		block:  make([]fleetSample, 0, fleetBlock+fleetBlock/fleetForkEvery*fleetForkBurst+fleetForkBurst),
		shadow: make([]float64, 0, fleetBlock),
	}
	zipf := rand.NewZipf(rand.New(rand.NewSource(b.cfg.seed*7919+1)), fleetZipfS, 1, uint64(len(w.procs)-1))
	t0 := time.Now()
	fr.startBlock()
	for n := 1; ; n++ {
		i := zipf.Uint64()
		p := w.procs[i]
		now := w.step(&fr, p)
		sd := w.sh.step(w.shadows[i])
		fr.shadow = append(fr.shadow, float64(sd))
		fr.shadowSteps.add(sd)
		fr.blockShadow += time.Duration(sd)
		if n%fleetForkEvery == 0 {
			// A fork storm: the child is driven for a burst, then exits.
			child, err := w.fork(p)
			if err != nil {
				return err
			}
			for i := 0; i < fleetForkBurst; i++ {
				now = w.step(&fr, child)
			}
			fr.kids.Merge(&child.g.Stats)
		}
		if now.After(deadline) && fr.events >= need {
			break
		}
		if n%fleetBlock == 0 {
			fr.endBlock()
			fr.startBlock()
		}
	}
	fr.endBlock()
	span := b.sp.add("fleet.drive", noSpan, t0, time.Now())
	b.sp.addAgg("guard.FleetPool.Do", span, int64(fr.events), fr.doTime)
	u50, _ := fr.unscaled.quantile(0.5)
	u99, _ := fr.unscaled.quantile(0.99)
	s50, _ := fr.shadowSteps.quantile(0.5)
	s99, _ := fr.shadowSteps.quantile(0.99)
	fmt.Printf("fleet at the host's speed: blocked p50 %.3f us, p99 %.3f us, mean %.3f us; shadow steps p50 %.0f ns, p99 %.0f ns\n",
		u50/1e3, u99/1e3, fr.unscaled.mean()/1e3, s50, s99)

	ph.wall, ph.cpu = time.Duration(fr.wall), time.Duration(fr.cpu)
	ph.gate, ph.gateCalls = time.Duration(fr.blocked.sum), fr.blocked.n
	ph.exec = ph.wall - ph.gate
	ph.cal, ph.opMeans = fr.cal, fr.opMeans
	ph.p99 = u99 * fleetShadowRef99 / s99
	ph.blocked, ph.fast = fr.blocked, fr.fast
	ph.attempted, ph.failed, ph.units = fr.events, fr.failed, fr.events-fr.failed
	ph.failures = fr.failures
	ph.stats.Merge(&fr.kids)
	for _, p := range w.procs {
		ph.stats.Merge(&p.g.Stats)
		p.g.Stats = guard.Stats{}
	}
	// The processes' windows fill in as they are first checked, so the
	// live heap is read with all of them still reachable.
	b.liveHeap()
	ph.pool = w.pool.Snapshot()
	w.pool = guard.NewFleetPool(fleetShards, fleetWorkers)
	// Ledger check: every timed call was admitted or shed by the pool.
	if ph.pool.Checks+ph.pool.Shed != ph.blocked.n {
		return fmt.Errorf("fleet ledger: admitted %d + shed %d != %d timed FleetPool.Do calls",
			ph.pool.Checks, ph.pool.Shed, ph.blocked.n)
	}
	if b.sp.on {
		w.replay(b)
	}
	return nil
}

// fork builds a forked child of p: a fresh trace unit whose stream opens
// at the next sync point of the parent's replay position (a trace unit
// enabled for a new context writes a PSB first), checked by a guard that
// inherits p's artifact and approvals.
func (w *fleetZipf) fork(p *fleetProc) (*fleetProc, error) {
	cur := max(ipt.Sync(p.raw, p.cur), 0)
	child, tr, err := newFleetProc(p.fb, p.raw, p.tenant, cur)
	if err != nil {
		return nil, err
	}
	child.g = guard.ForkGuard(p.g, nil, tr)
	return child, nil
}

// step replays p's next chunk and times one admitted (or shed) check into
// the current block.
func (w *fleetZipf) step(fr *fleetRun, p *fleetProc) time.Time {
	raw := p.raw
	if p.cur >= len(raw) {
		// One full pass replayed: the process restarts with a fresh
		// trace session over the same binary.
		p.topa.Reset()
		p.g.InvalidateWindow()
		p.cur = 0
	}
	end := min(p.cur+fleetChunk, len(raw))
	p.topa.Write(raw[p.cur:end])
	p.cur = end

	slow0, deg0 := p.g.Stats.SlowChecks, p.g.Stats.DegradedChecks
	t0 := time.Now()
	res := w.pool.Do(p.tenant, p.g)
	t1 := time.Now()
	fr.block = append(fr.block, fleetSample{
		ns:   uint64(t1.Sub(t0)),
		fast: p.g.Stats.SlowChecks == slow0 && p.g.Stats.DegradedChecks == deg0,
	})
	fr.doTime += t1.Sub(t0)
	fr.events++
	if res.Verdict != guard.VerdictClean {
		fr.failed++
		if len(fr.failures) < 20 {
			fr.failures = append(fr.failures, fmt.Sprintf("benign fleet check of %s failed: %s", p.tenant, res.Reason))
		}
	}
	return t1
}

// replay times the fleet's layers over each binary's recorded trace: the
// window decoder, the artifact lookups, the demux, and the full decoder
// over the first window.
func (w *fleetZipf) replay(b *bench) {
	for _, fb := range w.bins {
		for _, raw := range fb.raws {
			var chunks [][]byte
			for off := 0; off < len(raw); off += fleetChunk {
				chunks = append(chunks, raw[off:min(off+fleetChunk, len(raw))])
			}
			b.replayStream(chunks, nil, fb.bin.Art.Lookup)
			cc := make([]coreChunk, len(chunks))
			for i, ch := range chunks {
				cc[i] = coreChunk{b: ch}
			}
			b.replayDemux(cc, 1)
			b.replayFull(fullWindow{as: fb.bin.AS, buf: raw[:min(2*fleetChunk, len(raw))]})
		}
	}
}

package harness

// Fleet-scale enforcement simulation (DESIGN.md §10): ten thousand
// simulated processes, a few shared per-binary label artifacts, one
// sharded admission layer. Each simulated process owns only what the
// fleet design says a process costs — a guard (last-IP window cursor +
// stats), a tiny two-region ToPA, and a replay cursor into its binary's
// shared recorded trace. Everything heavyweight (address space, O-CFG,
// the flat ITC-CFG arenas, the approval cache) lives in one
// guard.Binary per executable and is referenced by pointer.
//
// The workload is heavy-tailed: driver goroutines pick processes
// through a Zipf distribution, so a few processes (and thus a few
// tenants) dominate offered load — exactly the regime the FleetPool's
// per-tenant fairness exists for. Fork storms are simulated with
// guard.ForkGuard: children inherit the parent's artifact, approvals
// and replay position.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/trace/ipt"
)

// FleetConfig sizes one fleet simulation.
type FleetConfig struct {
	// Procs is the number of simulated processes (default 10000).
	Procs int
	// Tenants is the number of distinct tenants the processes are
	// partitioned into (default 64).
	Tenants int
	// Shards is the FleetPool shard count (default 8).
	Shards int
	// WorkersPerShard is each shard's checker-slot count (default 4).
	WorkersPerShard int
	// Drivers is the number of concurrent driver goroutines (default 8).
	// Processes are statically partitioned across drivers, so only the
	// admission layer is contended — per-process state stays confined.
	Drivers int
	// ForkEvery, when > 0, forks the currently driven process every
	// ForkEvery driver-local events (a rolling fork storm). Each child
	// inherits via guard.ForkGuard and is immediately driven for a
	// burst of events.
	ForkEvery int
}

// The fleet's fixed shape: the trace volume replayed into a process's
// ToPA per check event (also the per-region ToPA size), and the Zipf
// skew s > 1 of the driver's process pick. The protected binaries are
// nginx, tar and dd, and every process runs the Runner's Policy.
const (
	fleetChunkBytes = 2048
	fleetZipfS      = 1.2
)

// fleetBinary is one protected executable's shared state plus the
// recorded benign trace its processes replay.
type fleetBinary struct {
	app *apps.App
	bin *guard.Binary
	raw []byte
}

// fleetProc is one simulated process. Only its owning driver touches
// it, so it carries no lock.
type fleetProc struct {
	tenant string
	bin    *fleetBinary
	g      *guard.Guard
	topa   *ipt.ToPA
	cur    int
	// shedSince marks a check shed since the last admitted one: the
	// unchecked trace may have wrapped out of the ToPA, so the next
	// admitted check may legitimately find its window damaged.
	shedSince bool
}

// Fleet is a built simulation: call Run to drive it. Repeated Run
// calls accumulate into the same processes and ledgers.
type Fleet struct {
	cfg  FleetConfig
	bins []*fleetBinary
	pool *guard.FleetPool
	// parts statically partitions every process (including forked
	// children, which join their parent's partition) across drivers.
	parts [][]*fleetProc

	events uint64 // total check events offered across all Run calls
	forks  uint64

	violations   atomic.Uint64
	violSample   atomic.Value // string
	shedSample   atomic.Value // string
	degraded     atomic.Uint64
	degSample    atomic.Value // string
	offeredShard []atomic.Uint64
}

func (c *FleetConfig) setDefaults() {
	if c.Procs <= 0 {
		c.Procs = 10000
	}
	if c.Tenants <= 0 {
		c.Tenants = 64
	}
	if c.Shards <= 0 {
		c.Shards = 8
	}
	if c.WorkersPerShard <= 0 {
		c.WorkersPerShard = 4
	}
	if c.Drivers <= 0 {
		c.Drivers = 8
	}
}

// NewFleet analyzes and trains every binary, records one benign trace
// per binary, and builds the full process population. The recorded
// trace is folded into training before the artifact snapshot, so a
// clean replay can never take an untrained edge.
func (r *Runner) NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg.setDefaults()
	pol := r.Policy

	f := &Fleet{
		cfg:          cfg,
		pool:         guard.NewFleetPool(cfg.Shards, cfg.WorkersPerShard),
		parts:        make([][]*fleetProc, cfg.Drivers),
		offeredShard: make([]atomic.Uint64, cfg.Shards),
	}

	for _, a := range []*apps.App{apps.Nginx(), apps.Tar(), apps.DD()} {
		an, err := r.Analyze(a)
		if err != nil {
			return nil, err
		}
		if err := r.Train(an); err != nil {
			return nil, err
		}
		raw, err := r.traceBytes(a, a.MakeInput(r.Scale, r.Seed))
		if err != nil {
			return nil, err
		}
		evs, err := ipt.DecodeFast(raw)
		if err != nil {
			return nil, err
		}
		an.ITC.ObserveWindow(ipt.ExtractTIPs(evs))
		an.ITC.RebuildCache()
		f.bins = append(f.bins, &fleetBinary{
			app: a,
			bin: guard.NewBinary(an.OCFG.AS, an.OCFG, an.ITC.Artifact()),
			raw: raw,
		})
	}

	for i := 0; i < cfg.Procs; i++ {
		fb := f.bins[i%len(f.bins)]
		// Block tenant assignment: Zipf over the process index
		// concentrates load on low indices, so low-numbered tenants
		// become the heavy hitters.
		tenant := fmt.Sprintf("tenant-%03d", i*cfg.Tenants/cfg.Procs)
		p, err := f.newProc(fb, tenant, pol, 0)
		if err != nil {
			return nil, err
		}
		f.parts[i%cfg.Drivers] = append(f.parts[i%cfg.Drivers], p)
	}
	return f, nil
}

// newProc builds one simulated process over its binary's shared state.
func (f *Fleet) newProc(fb *fleetBinary, tenant string, pol guard.Policy, cur int) (*fleetProc, error) {
	topa := ipt.NewToPA(fleetChunkBytes, fleetChunkBytes)
	tr := ipt.NewTracer(topa)
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		return nil, err
	}
	return &fleetProc{
		tenant: tenant,
		bin:    fb,
		g:      fb.bin.NewGuard(tr, pol),
		topa:   topa,
		cur:    cur,
	}, nil
}

// step replays the process's next trace chunk and offers one check to
// the admission layer.
func (f *Fleet) step(p *fleetProc) {
	raw, chunk := p.bin.raw, fleetChunkBytes
	if p.cur >= len(raw) {
		// One full pass replayed: the process "restarts" — a fresh
		// trace session over the same binary with a clean window.
		// Stitching the stream head onto the tail instead would
		// fabricate an untrained wrap edge no real execution takes.
		p.topa.Reset()
		p.g.InvalidateWindow()
		p.cur = 0
	}
	end := p.cur + chunk
	if end > len(raw) {
		end = len(raw)
	}
	p.topa.Write(raw[p.cur:end])
	p.cur = end

	f.offeredShard[f.pool.ShardIndex(p.tenant)].Add(1)
	res := f.pool.Do(p.tenant, p.g)
	// A shed check never ran, so its result carries no window health.
	shed := res.Degraded && res.Health == guard.HealthClean
	switch {
	case shed:
		f.shedSample.CompareAndSwap(nil, res.Reason)
	case res.Degraded && !p.shedSince:
		f.degraded.Add(1)
		f.degSample.CompareAndSwap(nil, fmt.Sprintf("%s/%s: %s", p.tenant, p.bin.app.Name, res.Reason))
	case res.Verdict == guard.VerdictViolation && !res.Degraded:
		f.violations.Add(1)
		f.violSample.CompareAndSwap(nil, fmt.Sprintf("%s/%s: %s", p.tenant, p.bin.app.Name, res.Reason))
	}
	p.shedSince = shed
}

// forkBurst is how many events a freshly forked child is driven for
// immediately (the storm's thundering-herd shape).
const forkBurst = 4

// Run drives the fleet for `events` check events (split across the
// drivers), or until `wall` elapses, whichever comes first; events <= 0
// means wall-only. It returns the cumulative result over every Run so
// far. The error reports infrastructure failures only — invariant
// violations are in FleetResult.Check.
func (f *Fleet) Run(events int, wall time.Duration) (*FleetResult, error) {
	var deadline time.Time
	if wall > 0 {
		deadline = time.Now().Add(wall)
	}
	perDriver := make([]int, len(f.parts))
	if events > 0 {
		for i := range perDriver {
			perDriver[i] = events / len(f.parts)
		}
		for i := 0; i < events%len(f.parts); i++ {
			perDriver[i]++
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	var ran, forked uint64
	var firstErr atomic.Value // error
	for d := range f.parts {
		if len(f.parts[d]) == 0 {
			continue
		}
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			procs := f.parts[d]
			rng := rand.New(rand.NewSource(int64(7919*d) + 1))
			zipf := rand.NewZipf(rng, fleetZipfS, 1, uint64(len(procs)-1))
			local, localForks := uint64(0), uint64(0)
			for n := 0; ; n++ {
				if events > 0 && n >= perDriver[d] {
					break
				}
				if events <= 0 && (n&63) == 0 && !deadline.IsZero() && time.Now().After(deadline) {
					break
				}
				p := procs[zipf.Uint64()]
				f.step(p)
				local++
				if f.cfg.ForkEvery > 0 && n%f.cfg.ForkEvery == f.cfg.ForkEvery-1 {
					// The child's trace unit is enabled for a new
					// context, so its stream opens at a PSB: the next
					// sync point at or after the parent's position.
					cur := max(ipt.Sync(p.bin.raw, p.cur), 0)
					child, err := f.newProc(p.bin, p.tenant, p.g.Policy, cur)
					if err != nil {
						firstErr.CompareAndSwap(nil, err)
						break
					}
					child.g = guard.ForkGuard(p.g, nil, child.g.Tracer)
					procs = append(procs, child)
					localForks++
					for b := 0; b < forkBurst; b++ {
						f.step(child)
						local++
					}
				}
			}
			f.parts[d] = procs
			atomic.AddUint64(&ran, local)
			atomic.AddUint64(&forked, localForks)
		}(d)
	}
	wg.Wait()
	elapsed := time.Since(start)
	f.events += ran
	f.forks += forked
	if err, ok := firstErr.Load().(error); ok && err != nil {
		return nil, err
	}
	return f.result(elapsed, ran), nil
}

// FleetResult is the cumulative outcome of a fleet simulation.
type FleetResult struct {
	Procs    int // population including forked children
	Binaries int
	Tenants  int
	Shards   int
	Events   uint64 // check events offered
	Forks    uint64

	// Agg is every process guard's Stats merged.
	Agg guard.Stats
	// Pool is the merged admission ledger; ShardStats the per-shard
	// ledgers; OfferedPerShard the independently counted offered load
	// per shard (ledger cross-check).
	Pool            guard.PoolStats
	ShardStats      []guard.PoolStats
	OfferedPerShard []uint64

	// SharedArtifacts counts distinct itc.Artifact pointers across the
	// whole population — the no-copy pin requires exactly Binaries.
	SharedArtifacts int
	// RealViolations counts non-degraded violation verdicts (must be
	// zero: the replayed streams are trained and benign).
	RealViolations uint64
	ViolSample     string
	ShedSample     string
	// Degraded counts admitted checks that found their window damaged
	// with no shed of their process since its last admitted check
	// (must be zero: the replayed streams are fault-free).
	Degraded       uint64
	DegradedSample string

	Wall         time.Duration
	ChecksPerSec float64
}

func (f *Fleet) result(elapsed time.Duration, ran uint64) *FleetResult {
	res := &FleetResult{
		Binaries:       len(f.bins),
		Tenants:        f.cfg.Tenants,
		Shards:         f.cfg.Shards,
		Events:         f.events,
		Forks:          f.forks,
		Pool:           f.pool.Snapshot(),
		ShardStats:     f.pool.ShardSnapshots(),
		RealViolations: f.violations.Load(),
		Degraded:       f.degraded.Load(),
		Wall:           elapsed,
	}
	arts := make(map[*itc.Artifact]bool)
	for _, part := range f.parts {
		for _, p := range part {
			res.Procs++
			res.Agg.Merge(&p.g.Stats)
			arts[p.g.Artifact()] = true
		}
	}
	res.SharedArtifacts = len(arts)
	res.OfferedPerShard = make([]uint64, len(f.offeredShard))
	for i := range f.offeredShard {
		res.OfferedPerShard[i] = f.offeredShard[i].Load()
	}
	if s, ok := f.violSample.Load().(string); ok {
		res.ViolSample = s
	}
	if s, ok := f.shedSample.Load().(string); ok {
		res.ShedSample = s
	}
	if s, ok := f.degSample.Load().(string); ok {
		res.DegradedSample = s
	}
	if elapsed > 0 {
		// Throughput reflects this Run call only; counters above are
		// cumulative across Run calls.
		res.ChecksPerSec = float64(ran) / elapsed.Seconds()
	}
	return res
}

// Check validates the fleet invariants and returns every violation:
//
//   - the admission ledger accounts for every offered check, in total
//     and per shard (checks == admitted + shed, nothing silent), and
//     every shed is a fairness shed (a pooled check never times out);
//   - guard-side and pool-side ledgers agree (merged Stats.Checks,
//     Shed, FairnessSheds match the pool);
//   - exactly one artifact per binary is shared by the population;
//   - fork inheritance is fully counted;
//   - no real (non-degraded) violation fired on the benign workload;
//   - no admitted check found its window damaged unless a shed of its
//     process left trace unchecked first: the replayed streams are
//     fault-free, so any other damage means the fleet fed the guard a
//     broken stream.
func (res *FleetResult) Check() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }

	if res.Pool.Checks+res.Pool.Shed != res.Events {
		fail("pool ledger: admitted %d + shed %d != offered %d", res.Pool.Checks, res.Pool.Shed, res.Events)
	}
	if res.Pool.FairnessSheds != res.Pool.Shed {
		fail("pool shed %d checks, %d of them for fairness: fairness is the only shed", res.Pool.Shed, res.Pool.FairnessSheds)
	}
	var sum guard.PoolStats
	for i, ss := range res.ShardStats {
		sum.Merge(ss)
		if i < len(res.OfferedPerShard) && ss.Checks+ss.Shed != res.OfferedPerShard[i] {
			fail("shard %d ledger: admitted %d + shed %d != offered %d", i, ss.Checks, ss.Shed, res.OfferedPerShard[i])
		}
		if ss.FairnessSheds != ss.Shed {
			fail("shard %d shed %d checks, %d of them for fairness: fairness is the only shed", i, ss.Shed, ss.FairnessSheds)
		}
	}
	if sum.Checks != res.Pool.Checks || sum.Shed != res.Pool.Shed || sum.FairnessSheds != res.Pool.FairnessSheds {
		fail("shard snapshots do not sum to the merged pool ledger: %+v vs %+v", sum, res.Pool)
	}
	if res.Agg.Checks != res.Pool.Checks+res.Pool.Shed {
		fail("guard ledger: merged Stats.Checks %d != admitted %d + shed %d", res.Agg.Checks, res.Pool.Checks, res.Pool.Shed)
	}
	if res.Agg.Shed != res.Pool.Shed {
		fail("shed counters diverge: guards %d, pool %d", res.Agg.Shed, res.Pool.Shed)
	}
	if res.Agg.FairnessSheds != res.Pool.FairnessSheds {
		fail("fairness-shed counters diverge: guards %d, pool %d", res.Agg.FairnessSheds, res.Pool.FairnessSheds)
	}
	if res.SharedArtifacts != res.Binaries {
		fail("artifact sharing broken: %d distinct artifacts across %d procs, want exactly %d (one per binary)",
			res.SharedArtifacts, res.Procs, res.Binaries)
	}
	if res.Agg.ForkInherits != res.Forks {
		fail("fork inheritance undercounted: %d ForkInherits vs %d forks", res.Agg.ForkInherits, res.Forks)
	}
	if res.RealViolations != 0 {
		fail("%d real violations on a benign trained fleet (first: %s)", res.RealViolations, res.ViolSample)
	}
	if res.Degraded != 0 {
		fail("%d admitted checks found a damaged window on a fault-free fleet with no shed to explain it (first: %s)", res.Degraded, res.DegradedSample)
	}
	return bad
}

// String renders the one-line summary flowguardd prints.
func (res *FleetResult) String() string {
	return fmt.Sprintf("procs=%d (forks=%d) binaries=%d artifacts=%d tenants=%d shards=%d  events=%d admitted=%d shed=%d (fair %d)  %.0f checks/s  wall=%s",
		res.Procs, res.Forks, res.Binaries, res.SharedArtifacts, res.Tenants, res.Shards,
		res.Events, res.Pool.Checks, res.Pool.Shed, res.Pool.FairnessSheds,
		res.ChecksPerSec, res.Wall.Round(time.Millisecond))
}

// FleetStatsMap flattens the result into the perfstat artifact's
// fleet_stats form: every guard.Stats counter plus the fleet-level
// ledgers and population shape.
func (res *FleetResult) FleetStatsMap() map[string]uint64 {
	m := StatsMap(&res.Agg)
	m["FleetProcs"] = uint64(res.Procs)
	m["FleetBinaries"] = uint64(res.Binaries)
	m["FleetArtifacts"] = uint64(res.SharedArtifacts)
	m["FleetTenants"] = uint64(res.Tenants)
	m["FleetShards"] = uint64(res.Shards)
	m["FleetEvents"] = res.Events
	m["FleetForks"] = res.Forks
	m["FleetPoolChecks"] = res.Pool.Checks
	m["FleetPoolShed"] = res.Pool.Shed
	m["FleetPoolFairnessSheds"] = res.Pool.FairnessSheds
	// Always zero (admission is never retried); kept alongside the
	// benchmark's guard.pool_retried until that metric is retired.
	m["FleetPoolRetried"] = res.Pool.Retried
	m["FleetRealViolations"] = res.RealViolations
	return m
}

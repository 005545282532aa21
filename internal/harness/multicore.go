package harness

// Multicore differential driver: runs a workload under the preemptive
// multi-core world (guard.EnableMulticore + kernelsim.RunMulticore) with
// harness-owned endpoint interceptors, so every module verdict — computed
// over a demux-reconstructed per-thread window — is compared on the spot
// against a reference oracle reading the very same reconstructed sink.
// The oracle side is per thread: the first thread's oracle owns the
// approval store and later threads adopt it, mirroring how the guard
// shares one approval cache across its per-thread streams.

import (
	"reflect"

	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/oracle"
	"flowguard/internal/trace/ipt"
)

// MCOutcome extends DiffOutcome with the multicore run's scheduler- and
// transport-level observables.
type MCOutcome struct {
	DiffOutcome
	// Results is the target process's per-check production result
	// sequence, in endpoint order (the round-trip property compares it
	// against a solo run's sequence).
	Results []guard.Result
	// Statuses are RunMulticore's exit statuses (target first).
	Statuses []kernelsim.ExitStatus
	// Guard is the target's checking engine, Demux the module's stream
	// router (counters are read after FlushMulticore).
	Guard *guard.Guard
	Demux *ipt.Demux
	// ThreadOracles is how many per-thread oracles ran (>1 means clone
	// threads crossed endpoints of their own).
	ThreadOracles int
}

// addOracleStats folds src into dst field by field (thread-oracle stats
// sum into one process-level view, exactly like guard.Stats sharing).
func addOracleStats(dst, src *oracle.Stats) {
	oracleTwins(dst, src, func(_ string, d, v reflect.Value) { d.SetUint(d.Uint() + v.Uint()) })
}

// diffMulticoreRun executes the target input under multicore protection,
// preempted across cores and interleaved with unprotected noise
// neighbors, comparing the module's per-thread verdicts against
// per-thread reference oracles at every endpoint. Policy endpoints are
// cleared so the harness owns interception; the module still routes
// streams, switches trace contexts and reconstructs windows exactly as
// in production.
func diffMulticoreRun(fx *DiffFixture, input []byte, pol guard.Policy,
	cores int, quantum uint64, noise [][]byte) (*MCOutcome, error) {
	k := kernelsim.New()
	p, err := fx.An.App.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	procs := []*kernelsim.Process{p}
	for _, nin := range noise {
		np, nerr := fx.An.App.Spawn(k, nin)
		if nerr != nil {
			return nil, nerr
		}
		procs = append(procs, np)
	}

	km := guard.InstallModule(k)
	if err := km.EnableMulticore(cores); err != nil {
		return nil, err
	}
	pol.Endpoints = nil // harness-owned interception (CheckCurrent)
	g, err := km.ProtectMulticore(p, fx.An.OCFG, fx.An.ITC, pol)
	if err != nil {
		return nil, err
	}

	out := &MCOutcome{Guard: g}
	oracles := make(map[*kernelsim.Thread]*oracle.Oracle)
	var primary *oracle.Oracle
	handler := func(cp *kernelsim.Process, sysno uint64) error {
		if cp != p {
			return nil // noise neighbors run unprotected and unchecked
		}
		gres, ok := km.CheckCurrent(cp)
		if !ok {
			return nil
		}
		th := cp.CurrentThread()
		o := oracles[th]
		if o == nil {
			sink := km.ThreadSink(th)
			if sink == nil {
				sink = g.Tracer.Out
			}
			o = oracle.New(cp.AS, fx.An.OCFG, fx.Ref, sink, oraclePolicy(pol))
			if primary == nil {
				primary = o
			} else {
				o.AdoptApprovals(primary)
			}
			oracles[th] = o
		}
		ores := o.Check()
		out.Checks++
		out.Results = append(out.Results, gres)
		out.Healths = append(out.Healths, gres.Health)
		out.Divergences = append(out.Divergences, compareResults(out.Checks, gres, ores)...)
		if gres.Verdict == guard.VerdictViolation {
			out.GuardViolation = true
			k.Kill(cp, kernelsim.SIGKILL)
			return kernelsim.ErrKilled
		}
		return nil
	}
	for _, sysno := range guard.DefaultEndpoints() {
		k.Intercept(sysno, handler)
	}

	sts, err := k.RunMulticore(procs, cores, quantum, 500_000_000)
	if err != nil {
		return nil, err
	}
	km.FlushMulticore()
	km.Shutdown()

	out.Statuses = sts
	out.Killed, out.Exited = sts[0].Killed, sts[0].Exited
	out.Demux = km.DemuxStats()
	out.ThreadOracles = len(oracles)
	var osum oracle.Stats
	for _, o := range oracles {
		addOracleStats(&osum, &o.Stats)
	}
	out.Divergences = append(out.Divergences, compareStats(&g.Stats, &osum)...)
	return out, nil
}

// soloConformanceRun is the round-trip property's reference leg: the same
// input protected alone (dedicated CR3-filtered tracer, no demux), with
// the identical harness interceptors over the module's CheckCurrent, so
// the per-check result sequence is produced by the same dispatch path the
// multicore leg uses.
func soloConformanceRun(fx *DiffFixture, input []byte, pol guard.Policy) (*MCOutcome, error) {
	k := kernelsim.New()
	p, err := fx.An.App.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	km := guard.InstallModule(k)
	pol.Endpoints = nil
	g, err := km.Protect(p, fx.An.OCFG, fx.An.ITC, pol)
	if err != nil {
		return nil, err
	}
	out := &MCOutcome{Guard: g}
	handler := func(cp *kernelsim.Process, sysno uint64) error {
		if cp != p {
			return nil
		}
		gres, ok := km.CheckCurrent(cp)
		if !ok {
			return nil
		}
		out.Checks++
		out.Results = append(out.Results, gres)
		out.Healths = append(out.Healths, gres.Health)
		if gres.Verdict == guard.VerdictViolation {
			out.GuardViolation = true
			k.Kill(cp, kernelsim.SIGKILL)
			return kernelsim.ErrKilled
		}
		return nil
	}
	for _, sysno := range guard.DefaultEndpoints() {
		k.Intercept(sysno, handler)
	}
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	km.Shutdown()
	out.Statuses = []kernelsim.ExitStatus{st}
	out.Killed, out.Exited = st.Killed, st.Exited
	return out, nil
}

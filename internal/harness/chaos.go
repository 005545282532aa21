package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// ChaosRow aggregates one degraded-mode policy's slice of a seeded
// fault-injection sweep over the vulnerable server: how many hijacked
// runs the guard still killed, how many benign runs survived, and the
// degraded-check accounting behind those verdicts (the §7.1.2 worst
// cases: trace loss, buffer gaps, corruption).
type ChaosRow struct {
	Mode guard.DegradedMode
	Runs int
	// Attacks / Detected count hijacked runs and their kills; Benign /
	// Survived the clean-traffic runs that exited normally.
	Attacks, Detected int
	Benign, Survived  int
	// Faults is the number of injected stream faults across the slice:
	// the trace damage, which a seed replays exactly.
	Faults uint64
	// WorkerFaults is the number of async worker stalls and crashes
	// drawn; the draws are made per pool hook call, so the count follows
	// goroutine scheduling and varies between runs of one seed.
	WorkerFaults uint64
	// Stats merges the slice's guard ledgers: the counters behind the
	// verdicts.
	Stats guard.Stats
}

func (c ChaosRow) String() string {
	s := &c.Stats
	return fmt.Sprintf("%-15s runs=%-4d attacks=%2d/%-2d benign-ok=%2d/%-2d faults=%-4d degraded=%-4d ovf=%-3d bad=%-3d gap=%-2d retries=%-3d open=%-3d closed=%-3d worker-faults=%d",
		c.Mode, c.Runs, c.Detected, c.Attacks, c.Survived, c.Benign,
		c.Faults, s.DegradedChecks, s.Overflows, s.Malformed, s.Gaps,
		s.Retries, s.FailOpens, s.FailClosures, c.WorkerFaults)
}

// faultCounts splits the faults plan injected into stream faults, which
// a seed replays exactly, and async worker stalls and crashes, whose
// draws follow goroutine scheduling.
func faultCounts(plan *faults.Plan) (stream, worker uint64) {
	c := plan.Counts()
	worker = c[faults.WorkerStall] + c[faults.WorkerCrash]
	return plan.Total() - worker, worker
}

// Chaos sweeps n seeded fault plans across the three degraded-mode
// policies (seed i runs under mode i%3, with every other run carrying a
// real exploit payload — the periods are coprime-ish by design so every
// mode sees both workload classes, mirroring the chaos soak in
// internal/faults).
// It reports per-mode aggregates; an attack a non-fail-open mode let
// through is an error — the security half of the degraded-mode
// contract, enforced here just as in the tests.
func (r *Runner) Chaos(n int) ([]ChaosRow, error) {
	a := apps.Vulnd()
	an, err := r.Analyze(a)
	if err != nil {
		return nil, err
	}
	if err := r.Train(an); err != nil {
		return nil, err
	}
	as, err := a.Load()
	if err != nil {
		return nil, err
	}
	rop, err := attack.BuildROPWrite(as)
	if err != nil {
		return nil, err
	}
	srop, err := attack.BuildSROP(as)
	if err != nil {
		return nil, err
	}
	benign := a.MakeInput(r.Scale, r.Seed)

	modes := []guard.DegradedMode{guard.FailClosed, guard.SlowPathRetry, guard.FailOpen}
	rows := make([]ChaosRow, len(modes))
	for i := range rows {
		rows[i].Mode = modes[i]
	}
	for seed := int64(0); seed < int64(n); seed++ {
		mi := int(seed % int64(len(modes)))
		mode := modes[mi]
		isAttack := seed%2 == 1
		input := benign
		if isAttack {
			if (seed/2)%2 == 0 {
				input = rop
			} else {
				input = srop
			}
		}

		k := kernelsim.New()
		p, err := a.Spawn(k, input)
		if err != nil {
			return nil, err
		}
		km := guard.InstallModule(k)
		pol := r.policy()
		pol.OnDegraded = mode
		// Alternate the async pipeline on a period coprime with the
		// mode (3) and workload (2) cycles, so every mode sees faulted
		// attacks and faulted benign traffic both sync and async. The
		// same plan doubles as the pool's worker-fault source.
		pol.Async = (seed/6)%2 == 0
		plan := faults.FromSeed(seed)
		var ap *guard.AsyncPool
		if pol.Async {
			ap = guard.NewAsyncPool(pol.AsyncWorkers)
			ap.InjectFaults(plan)
			km.UseAsync(ap)
		}
		g, err := km.Protect(p, an.OCFG, an.ITC, pol)
		if err != nil {
			return nil, err
		}
		g.Tracer.Fault = plan
		st, err := k.Run(p, 500_000_000)
		if ap != nil {
			// Stop the workers before Shutdown folds their crash counts.
			ap.Close()
		}
		km.Shutdown()
		if err != nil {
			return nil, err
		}

		row := &rows[mi]
		row.Runs++
		stream, worker := faultCounts(plan)
		row.Faults += stream
		row.WorkerFaults += worker
		if isAttack {
			row.Attacks++
			if st.Killed {
				row.Detected++
			} else if mode != guard.FailOpen {
				return nil, fmt.Errorf("harness: chaos seed %d mode %v: attack not detected (plan %+v)",
					seed, mode, plan.Config())
			}
		} else {
			row.Benign++
			if st.Exited {
				row.Survived++
			}
		}
		row.Stats.Merge(&g.Stats)
	}
	return rows, nil
}

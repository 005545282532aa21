package harness

// Multicore differential driver: runs a workload under the preemptive
// multi-core world (guard.EnableMulticore + kernelsim.RunMulticore)
// through the same diffGate as single-core process runs, so every module
// verdict — computed over a demux-reconstructed per-thread window — is
// compared on the spot against a reference oracle reading the very same
// reconstructed sink.

import (
	"fmt"

	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// diffMulticoreRun executes the target input under multicore protection,
// preempted across cores and interleaved with unprotected noise
// neighbors, comparing the module's per-thread verdicts against
// per-sink reference oracles at every endpoint. The module routes
// streams, switches trace contexts and reconstructs windows exactly as
// in production. The run injects no faults, so any demux
// resynchronization or attribution loss is itself a divergence.
func diffMulticoreRun(fx *DiffFixture, input []byte, pol guard.Policy,
	cores int, quantum uint64, noise [][]byte) (*DiffOutcome, error) {
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
	d, err := newDiffGate(fx, km, p, pol, km.ProtectMulticore)
	if err != nil {
		return nil, err
	}
	sts, err := k.RunMulticore(procs, cores, quantum, 500_000_000)
	km.FlushMulticore()
	km.Shutdown()
	if err != nil {
		return nil, err
	}
	out, err := d.finish(sts[0])
	if err != nil {
		return nil, err
	}
	if dx := km.DemuxStats(); dx.Resyncs != 0 || dx.UnmarkedLosses != 0 {
		out.Divergences = append(out.Divergences, fmt.Sprintf(
			"fault-free multicore run: demux Resyncs=%d UnmarkedLosses=%d",
			dx.Resyncs, dx.UnmarkedLosses))
	}
	return out, nil
}

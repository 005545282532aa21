// Package tracerec records an app's whole IPT trace, as the offline
// phase's training replays need it (§4.3 step 3).
package tracerec

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// Record runs the app on input with IPT attached, for at most
// budget instructions, into a one-region ToPA of capacity bytes, and
// returns the whole trace and the exit status. A run stopped early (a
// crash or the budget) still returns what it traced. A trace that
// outgrew the buffer is an error: what a wrap leaves starts mid-packet,
// and labels learned from it would miss the run's start unnoticed.
func Record(a *apps.App, input []byte, budget uint64, capacity int) ([]byte, kernelsim.ExitStatus, error) {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		return nil, kernelsim.ExitStatus{}, err
	}
	tr := ipt.NewTracer(ipt.NewToPA(capacity))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		return nil, kernelsim.ExitStatus{}, err
	}
	p.CPU.Branch = tr
	st, err := k.Run(p, budget)
	if err != nil {
		return nil, st, err
	}
	tr.Flush()
	if tr.Out.Wrapped() {
		return nil, st, fmt.Errorf("tracerec: trace of %s outgrew its %d-byte buffer", a.Name, capacity)
	}
	return tr.Out.Snapshot(), st, nil
}

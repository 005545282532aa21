package harness

import (
	"fmt"

	"flowguard/internal/apps"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace"
	"flowguard/internal/trace/bts"
	"flowguard/internal/trace/ipt"
	"flowguard/internal/trace/lbr"
)

// Table1Row compares one hardware tracing mechanism (paper Table 1).
type Table1Row struct {
	Mechanism string
	Precise   string
	// TracingOverheadPct is the geometric-mean tracing slowdown over the
	// SPEC-like kernels.
	TracingOverheadPct float64
	// DecodingOverheadX is the full-decode cost as a multiple of
	// execution (IPT only; BTS records are self-describing and LBR holds
	// register pairs): the geometric mean of KernelDecodingX.
	DecodingOverheadX float64
	// KernelDecodingX is the full-decode cost of each SPEC-like kernel by
	// name (IPT only), the rows of the standalone §2 claim (the paper
	// measures ~230x, with 8 of 12 benchmarks above 500x on their
	// testbed).
	KernelDecodingX map[string]float64
	Filtering       string
}

func (r Table1Row) String() string {
	dec := "none needed"
	if r.DecodingOverheadX > 0 {
		dec = fmt.Sprintf("high (%.0fx)", r.DecodingOverheadX)
	}
	return fmt.Sprintf("%-4s  precise=%-5s tracing=%7.2f%%  decoding=%-12s  filtering=%s",
		r.Mechanism, r.Precise, r.TracingOverheadPct, dec, r.Filtering)
}

// Table1 measures the three mechanisms over the SPEC-like kernels. Its
// IPT row also carries the §2 full-decode claim, kernel by kernel, from
// the same traced run.
func (r *Runner) Table1() ([]Table1Row, error) {
	var btsOv, lbrOv, iptOv, decOv []float64
	decX := make(map[string]float64)
	for _, a := range apps.SpecApps() {
		input := a.MakeInput(r.Scale, r.Seed)
		base, _, err := r.Baseline(a, input)
		if err != nil {
			return nil, err
		}

		// BTS: every branch recorded, no filtering.
		bt := bts.New(4096)
		if err := r.runWithSink(a, input, bt); err != nil {
			return nil, err
		}
		btsOv = append(btsOv, 100*float64(bt.Cycles())/float64(base))

		// LBR: 32-deep register stack with CoFI-type filtering.
		lt := lbr.New(lbr.Depth32, lbr.FilterCFI)
		if err := r.runWithSink(a, input, lt); err != nil {
			return nil, err
		}
		lbrOv = append(lbrOv, 100*float64(lt.Cycles())/float64(base))

		// IPT: compressed packets into a large ToPA; also measure the
		// full-decode cost of the complete trace (§2's 230x experiment:
		// "whenever the traced buffer is filled, we pause the execution
		// and decode the packets").
		it := ipt.NewTracer(ipt.NewToPA(256 << 20))
		if err := it.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
			return nil, err
		}
		as, err := r.runWithSinkAS(a, input, it)
		if err != nil {
			return nil, err
		}
		it.Flush()
		iptOv = append(iptOv, 100*float64(it.Cycles())/float64(base))
		ft, err := ipt.DecodeFull(as, it.Out.Snapshot(), 0)
		if err != nil {
			return nil, err
		}
		x := float64(ft.Cycles()) / float64(base)
		decX[a.Name] = x
		decOv = append(decOv, x)
	}
	return []Table1Row{
		{Mechanism: "BTS", Precise: "full", TracingOverheadPct: geomean(btsOv), DecodingOverheadX: 0, Filtering: "none"},
		{Mechanism: "LBR", Precise: "low", TracingOverheadPct: geomean(lbrOv), DecodingOverheadX: 0, Filtering: "CPL, CoFI type"},
		{Mechanism: "IPT", Precise: "full", TracingOverheadPct: geomean(iptOv), DecodingOverheadX: geomean(decOv), KernelDecodingX: decX, Filtering: "CPL, CR3, IP"},
	}, nil
}

func (r *Runner) runWithSink(a *apps.App, input []byte, sink trace.Sink) error {
	_, err := r.runWithSinkAS(a, input, sink)
	return err
}

func (r *Runner) runWithSinkAS(a *apps.App, input []byte, sink trace.Sink) (*module.AddressSpace, error) {
	k := kernelsim.New()
	p, err := a.Spawn(k, input)
	if err != nil {
		return nil, err
	}
	if t, ok := sink.(*ipt.Tracer); ok {
		t.SetCR3(p.CR3)
	}
	p.CPU.Branch = sink
	st, err := k.Run(p, 500_000_000)
	if err != nil {
		return nil, err
	}
	if !st.Exited {
		return nil, fmt.Errorf("harness: traced run of %s: %v", a.Name, st)
	}
	return p.AS, nil
}

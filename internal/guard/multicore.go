package guard

// Multicore protection (DESIGN.md §11): on a preemptive multi-core
// machine every core has ONE trace unit shared by every task scheduled
// onto it, not one per process. The module therefore runs a tracer per
// core with CR3 filtering OFF, context-switches per-task packetization
// state at every slice boundary (ipt.TraceContext), and reconstructs
// per-process — in fact per-thread — streams from the shared per-core
// buffers with an ipt.Demux keyed by the PIP/CR3 breadcrumbs the switch
// path leaves. The guards themselves are unchanged: each check runs over
// the calling thread's reconstructed window exactly as if a dedicated
// CR3-filtered tracer had produced it, which is the byte-identity
// property the demux round-trip suite verifies.

import (
	"errors"

	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// mcCoreRegion sizes each shared per-core ToPA region. The module pumps
// every core at every slice boundary and every endpoint, so a region
// only has to absorb one quantum's worth of packets; 64 KiB leaves two
// orders of magnitude of headroom and never wraps between pumps.
const mcCoreRegion = 64 << 10

// mcMode is the MODE payload written with every context-switch marker
// (64-bit execution; the demux strips it either way).
const mcMode = 1

// taskTrace is the module's per-task trace bookkeeping: the saved
// packetization context while the task is off-core, and — for tasks of
// protected processes — the thread's checked stream, whose ToPA is the
// demux binding for the process's CR3 while this task runs.
type taskTrace struct {
	ctx ipt.TraceContext
	cr3 uint64
	g   *Guard  // nil for unprotected processes
	s   *stream // nil for unprotected processes
}

// coreTrace is one simulated core's trace unit: the shared tracer, its
// ToPA, the demux read cursor into it, and the task currently on-core.
type coreTrace struct {
	tr      *ipt.Tracer
	topa    *ipt.ToPA
	pos     uint64
	cur     *taskTrace
	scratch []byte
}

// multicore holds the module's preemptive-world state.
type multicore struct {
	demux   *ipt.Demux
	cores   []coreTrace
	tasks   map[*kernelsim.Thread]*taskTrace
	curCore int
}

// EnableMulticore switches the module into preemptive multi-core mode
// with the given number of simulated cores: per-core tracers without CR3
// filtering, a demux splitting their shared streams back into per-thread
// windows, and the kernel's OnCoreSwitch/OnAsyncFlow hooks wired to the
// module. Call once, before any ProtectMulticore, before the workload
// runs (kernelsim.RunMulticore is the matching scheduler).
func (m *KernelModule) EnableMulticore(cores int) error {
	if cores < 1 {
		return errors.New("guard: multicore needs at least one core")
	}
	mc := &multicore{
		demux: ipt.NewDemux(cores),
		cores: make([]coreTrace, cores),
		tasks: make(map[*kernelsim.Thread]*taskTrace),
	}
	for i := range mc.cores {
		topa := ipt.NewToPA(mcCoreRegion, mcCoreRegion)
		tr := ipt.NewTracer(topa)
		// Per-core IA32_RTIT_CTL: TraceEn+BranchEn+User+ToPA, CR3Filter
		// OFF — the shared unit traces whatever the scheduler runs, and
		// attribution is the demux's job (§6 suggestion 2 inverted).
		ctl := ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlToPA
		if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl); err != nil {
			return err
		}
		mc.cores[i] = coreTrace{tr: tr, topa: topa}
	}
	mc.demux.OnLoss = func(cr3 uint64) {
		m.mu.Lock()
		g := m.guards[cr3]
		m.mu.Unlock()
		if g != nil {
			g.NoteStreamLoss()
		}
	}
	m.mc = mc
	m.K.OnCoreSwitch = m.onCoreSwitch
	m.K.OnAsyncFlow = m.onAsyncFlow
	return nil
}

// ProtectMulticore protects a process in multicore mode. The per-process
// tracer is virtual — its MSRs are never programmed, so it emits nothing
// and Flush is a no-op; the process's packets reach the guard through
// the demux, which routes the shared per-core streams into the bound
// per-thread ToPAs. The guard's process stream is the main thread's
// stream. CheckOnPMI is not wired: the shared core buffers are pumped
// every slice, so the per-process buffer-full fallback has no analogue.
func (m *KernelModule) ProtectMulticore(p *kernelsim.Process, ocfg *cfg.Graph, ig *itc.Graph, pol Policy) (*Guard, error) {
	if m.mc == nil {
		return nil, errors.New("guard: ProtectMulticore before EnableMulticore")
	}
	g, err := m.protectDemuxed(p, func(tr *ipt.Tracer) *Guard { return New(p.AS, ocfg, ig, tr, pol) })
	if err != nil {
		return nil, err
	}
	m.installEndpoints(pol)
	return g, nil
}

// protectDemuxed builds p's guard with mk over a virtual tracer,
// registers it, and binds the guard's process stream as the main
// thread's demux sink — the multicore form of protectTraced, shared by
// ProtectMulticore and fork inheritance.
func (m *KernelModule) protectDemuxed(p *kernelsim.Process, mk func(*ipt.Tracer) *Guard) (*Guard, error) {
	main := p.CurrentThread()
	if main == nil {
		return nil, errors.New("guard: multicore protection of an unspawned process")
	}
	tr := ipt.NewTracer(ipt.NewToPA(regionSizes()...))
	g := mk(tr)
	m.register(p, g)
	m.mc.tasks[main] = &taskTrace{cr3: p.CR3, g: g, s: &g.main}
	m.mc.demux.Bind(p.CR3, tr.Out)
	return g, nil
}

// pumpAll drains every core's ToPA through the demux under the current
// bindings. Called at every slice boundary (before rebinding, so the
// outgoing slices' bytes go to the threads that produced them) and at
// every endpoint check (after flushing the running core).
func (m *KernelModule) pumpAll() {
	mc := m.mc
	for i := range mc.cores {
		ct := &mc.cores[i]
		chunk, ok := ct.topa.AppendSince(ct.scratch[:0], ct.pos)
		if !ok {
			// The shared buffer wrapped past the cursor — a pump gap the
			// sizing is meant to preclude. The span is gone for whichever
			// task was on-core; fail toward loss, never silence.
			if ct.cur != nil && ct.cur.g != nil {
				ct.cur.g.NoteStreamLoss()
			}
			ct.pos = ct.topa.TotalWritten()
			continue
		}
		if len(chunk) > 0 {
			mc.demux.Feed(i, chunk)
			ct.pos += uint64(len(chunk))
		}
		ct.scratch = chunk[:0]
	}
}

// onCoreSwitch is the kernel's slice-boundary hook: route everything the
// previous slices produced, then context-switch the core's trace unit to
// the incoming task — save the outgoing packetization state, restore the
// incoming one, emit the PIP/MODE marker — and point the demux binding
// for the process's CR3 at the incoming thread's sink.
func (m *KernelModule) onCoreSwitch(core int, p *kernelsim.Process, t *kernelsim.Thread) {
	mc := m.mc
	if mc == nil || core < 0 || core >= len(mc.cores) {
		return
	}
	m.pumpAll()
	tt := mc.tasks[t]
	if tt == nil {
		tt = &taskTrace{cr3: p.CR3}
		m.mu.Lock()
		g := m.guards[p.CR3]
		m.mu.Unlock()
		if g != nil {
			// A clone of a protected process seen for the first time:
			// it gets its own stream, checked against the shared guard.
			tt.g = g
			s := newStream(ipt.NewTracer(ipt.NewToPA(regionSizes()...)))
			tt.s = &s
		}
		mc.tasks[t] = tt
	}
	if tt.s != nil {
		mc.demux.Bind(tt.cr3, tt.s.tr.Out)
	}
	ct := &mc.cores[core]
	if ct.cur != tt {
		// A task that keeps its core is not a context switch: no state to
		// swap, no marker (saving into ct.cur.ctx while restoring a stale
		// copy of the same struct would regress the live context).
		var prev *ipt.TraceContext
		if ct.cur != nil {
			prev = &ct.cur.ctx
		}
		ct.tr.SwitchTask(prev, tt.ctx, tt.cr3, mcMode)
		ct.cur = tt
	}
	mc.curCore = core
	t.CPU.Branch = ct.tr
}

// onAsyncFlow renders a kernel-performed control transfer (signal
// delivery, sigreturn) into the stream of whichever trace unit is
// watching the process: the current core's shared tracer in multicore
// mode, the process's dedicated tracer otherwise.
func (m *KernelModule) onAsyncFlow(p *kernelsim.Process, from, to uint64) {
	if m.mc != nil {
		m.mc.cores[m.mc.curCore].tr.AsyncEvent(from, to)
		return
	}
	m.mu.Lock()
	g := m.guards[p.CR3]
	m.mu.Unlock()
	if g != nil {
		g.Tracer.AsyncEvent(from, to)
	}
}

// mcCheck runs an endpoint check in multicore mode: flush the running
// core's pending TNT bits, route every core's bytes, then check the
// calling thread's stream — the process stream when no slice of g is
// on-core (an endpoint outside RunMulticore). The CheckPool is bypassed
// — the scheduler is serial, so there is no concurrency to bound.
func (m *KernelModule) mcCheck(g *Guard) Result {
	mc := m.mc
	ct := &mc.cores[mc.curCore]
	ct.tr.Flush()
	m.pumpAll()
	s := &g.main
	if tt := ct.cur; tt != nil && tt.g == g {
		s = tt.s
	}
	return g.check(s)
}

// CheckCurrent runs one flow check for the process exactly as the
// module's own endpoint interceptor would. It exists for harness diff
// runners that install their own interceptors (Policy.Endpoints left
// empty) so they can compare the module verdict against an oracle at
// each endpoint. The bool is false when the process is unprotected.
func (m *KernelModule) CheckCurrent(p *kernelsim.Process) (Result, bool) {
	m.mu.Lock()
	g, ok := m.guards[p.CR3]
	m.mu.Unlock()
	if !ok {
		return Result{}, false
	}
	return m.check(g), true
}

// ThreadSink returns the demuxed per-thread trace sink for t, or nil
// when t is unknown or its process unprotected. Harness oracles replay a
// thread's reconstructed stream from it.
func (m *KernelModule) ThreadSink(t *kernelsim.Thread) *ipt.ToPA {
	if m.mc == nil || t == nil {
		return nil
	}
	tt := m.mc.tasks[t]
	if tt == nil || tt.s == nil {
		return nil
	}
	return tt.s.tr.Out
}

// InjectCoreFaults wires a write-fault injector into every shared
// per-core tracer (chaos testing of the demux transport: slice-boundary
// marker loss and truncation). The per-process virtual tracers emit
// nothing and are left untouched. Call after EnableMulticore, before the
// workload runs.
func (m *KernelModule) InjectCoreFaults(f ipt.WriteFault) {
	if m.mc == nil {
		return
	}
	for i := range m.mc.cores {
		m.mc.cores[i].tr.Fault = f
	}
}

// FlushMulticore drains whatever the cores still hold through the demux
// (end-of-run readout before inspecting guard state in tests).
func (m *KernelModule) FlushMulticore() {
	if m.mc == nil {
		return
	}
	for i := range m.mc.cores {
		m.mc.cores[i].tr.Flush()
	}
	m.pumpAll()
}

// DemuxStats exposes the demux counters (nil outside multicore mode).
func (m *KernelModule) DemuxStats() *ipt.Demux {
	if m.mc == nil {
		return nil
	}
	return m.mc.demux
}

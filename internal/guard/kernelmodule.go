package guard

import (
	"fmt"
	"sync"

	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace"
	"flowguard/internal/trace/ipt"
)

// ToPA configuration of §5.1/§7.2.2: one table with two regions, ~16 KiB
// per protected core.
const (
	DefaultToPARegion  = 8 << 10
	DefaultToPARegions = 2
)

// pmiPseudoSyscall labels PMI-triggered detections in violation reports
// (they have no syscall context).
const pmiPseudoSyscall = ^uint64(0)

// ViolationReport is what the kernel module reports to administrators on
// a detected control-flow violation (§5.2).
type ViolationReport struct {
	PID     int
	Process string
	Syscall uint64
	Reason  string
}

func (r ViolationReport) String() string {
	at := kernelsim.SyscallName(r.Syscall)
	if r.Syscall == pmiPseudoSyscall {
		at = "PMI (buffer full)"
	}
	return fmt.Sprintf("CFI violation: pid=%d (%s) at %s: %s",
		r.PID, r.Process, at, r.Reason)
}

// DetectedAtPMI reports whether the violation was raised by the
// buffer-full fallback rather than a syscall endpoint.
func (r ViolationReport) DetectedAtPMI() bool { return r.Syscall == pmiPseudoSyscall }

// KernelModule is the §5 kernel component: it configures per-core IPT
// tracing for protected processes (CR3-filtered), intercepts the
// security-sensitive syscalls by replacing their syscall-table entries,
// triggers the hybrid flow check, and SIGKILLs violators.
//
// The module's own bookkeeping is mutex-protected, so it stays safe
// when a caller dispatches different processes' syscalls from separate
// goroutines.
type KernelModule struct {
	K *kernelsim.Kernel

	// mu protects guards, Reports and installed once processes run
	// concurrently.
	mu sync.Mutex
	// guards maps protected CR3 values to their checking engines.
	guards map[uint64]*Guard
	// Reports accumulates detected violations. Read it only after the
	// run completes (or via ReportsSnapshot).
	Reports []ViolationReport

	// apool, when set (UseAsync, or created on demand for Policy.Async),
	// runs the asynchronous checking pipeline for protected processes.
	apool *AsyncPool
	// ownsAPool marks a pool the module created itself and must close.
	ownsAPool bool

	// mc, when set (EnableMulticore), holds the preemptive-world state:
	// shared per-core tracers and the demux routing their streams back
	// into per-thread windows.
	mc *multicore

	installed map[uint64]bool
}

// InstallModule loads the kernel module into the simulated kernel. It
// hooks fork dispatch (a protected process's children are automatically
// protected by inheritance before they ever run) and async-flow events
// (signal delivery and sigreturn surface in the protected process's
// trace as FUP+TIP async edges).
func InstallModule(k *kernelsim.Kernel) *KernelModule {
	m := &KernelModule{
		K:         k,
		guards:    make(map[uint64]*Guard),
		installed: make(map[uint64]bool),
	}
	k.OnFork = m.onFork
	k.OnAsyncFlow = m.onAsyncFlow
	return m
}

// UseAsync attaches an asynchronous checking pool: processes protected
// with Policy.Async get their region-full captures drained by p's
// workers. Call before Protect. Without it, Protect creates (and
// Shutdown closes) a module-owned pool on first async protection.
func (m *KernelModule) UseAsync(p *AsyncPool) { m.apool = p }

// Shutdown ends the module's background machinery: pipeline counters
// still unfolded are flushed into their guards' Stats, and a
// module-owned async pool is closed. Call it after the workload
// completes and before reading guard statistics.
func (m *KernelModule) Shutdown() {
	m.mu.Lock()
	guards := make([]*Guard, 0, len(m.guards))
	for _, g := range m.guards {
		guards = append(guards, g)
	}
	pool, owns := m.apool, m.ownsAPool
	m.apool, m.ownsAPool = nil, false
	m.mu.Unlock()
	if pool != nil && owns {
		pool.Close()
	}
	for _, g := range guards {
		g.AsyncFlushStats()
	}
}

// check runs one endpoint flow check of g's process: in multicore mode
// over the calling thread's demuxed stream (mcCheck), otherwise over the
// process stream.
func (m *KernelModule) check(g *Guard) Result {
	if m.mc != nil {
		return m.mcCheck(g)
	}
	return g.Check()
}

// report appends a violation report under the module lock.
func (m *KernelModule) report(r ViolationReport) {
	m.mu.Lock()
	m.Reports = append(m.Reports, r)
	m.mu.Unlock()
}

// ReportsSnapshot returns a copy of the accumulated violation reports.
func (m *KernelModule) ReportsSnapshot() []ViolationReport {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]ViolationReport(nil), m.Reports...)
}

// Protect configures IPT for the process (step 3 of Figure 1): programs
// the trace-unit MSRs exactly as §5.1 describes, attaches the trace sink
// to the process's CPU, installs the endpoint interceptors, and registers
// the checking engine. The returned Guard exposes statistics.
func (m *KernelModule) Protect(p *kernelsim.Process, ocfg *cfg.Graph, ig *itc.Graph, pol Policy) (*Guard, error) {
	g, err := m.protectTraced(p, func(tr *ipt.Tracer) *Guard { return New(p.AS, ocfg, ig, tr, pol) })
	if err != nil {
		return nil, err
	}
	m.installEndpoints(pol)
	return g, nil
}

// onFork is the kernel's fork hook: an unprotected parent's child stays
// unprotected; a protected parent's child inherits protection before it
// is scheduled. A failure vetoes the fork in the kernel (the child must
// never run unguarded).
func (m *KernelModule) onFork(parent, child *kernelsim.Process) error {
	m.mu.Lock()
	pg, ok := m.guards[parent.CR3]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	var err error
	if m.mc != nil {
		_, err = m.protectDemuxed(child, func(tr *ipt.Tracer) *Guard { return ForkGuard(pg, child.AS, tr) })
	} else {
		_, err = m.ProtectForked(pg, child)
	}
	return err
}

// ProtectForked configures tracing and checking for a forked child of an
// already-protected process (§5.1 per-core trace setup, fleet fork
// semantics of DESIGN.md §10): a fresh ToPA and tracer filtered on the
// child's CR3, and a guard built by ForkGuard — the child inherits the
// parent's trained credit (shared artifact or live graph, by pointer)
// and its live approval cache, with a fresh window cursor and stats.
func (m *KernelModule) ProtectForked(parent *Guard, child *kernelsim.Process) (*Guard, error) {
	return m.protectTraced(child, func(tr *ipt.Tracer) *Guard { return ForkGuard(parent, child.AS, tr) })
}

// protectTraced gives p a dedicated CR3-filtered trace unit, builds its
// guard over that tracer with mk, registers it, and wires the
// CheckOnPMI fallback into the ToPA's one region-full hook.
func (m *KernelModule) protectTraced(p *kernelsim.Process, mk func(*ipt.Tracer) *Guard) (*Guard, error) {
	topa := ipt.NewToPA(regionSizes()...)
	tr := ipt.NewTracer(topa)
	// IA32_RTIT_CTL: TraceEn+BranchEn on, OS clear / User set (trace
	// user-level flow only), CR3Filter on, FabricEn clear, ToPA on.
	ctl := ipt.CtlTraceEn | ipt.CtlBranchEn | ipt.CtlUser | ipt.CtlCR3Filter | ipt.CtlToPA
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctl); err != nil {
		return nil, err
	}
	if err := tr.WriteMSR(ipt.MSRRTITCR3Match, p.CR3); err != nil {
		return nil, err
	}
	tr.SetCR3(p.CR3)

	if p.CPU.Branch != nil {
		p.CPU.Branch = trace.MultiSink{p.CPU.Branch, tr}
	} else {
		p.CPU.Branch = tr
	}

	g := mk(tr)
	m.register(p, g)
	if g.Policy.CheckOnPMI {
		// The worst-case endpoint of §7.1.2: a buffer-full PMI triggers
		// a flow check even when the process avoids every sensitive
		// syscall (endpoint pruning). The async capture, when register
		// installed one, runs first at every region boundary; the check
		// runs only when the table wraps. It must not recurse into a
		// check already in flight (inCheck is confined to the process's
		// goroutine: the hook fires from its own tracer writes).
		capture := topa.OnRegionFull
		topa.OnRegionFull = func(ev ipt.RegionFull) {
			if capture != nil {
				capture(ev)
			}
			if !ev.Wrapped || g.inCheck {
				return
			}
			res := m.check(g)
			if res.Verdict == VerdictViolation {
				m.report(ViolationReport{
					PID: p.PID, Process: p.Name, Syscall: pmiPseudoSyscall, Reason: res.Reason,
				})
				m.K.Kill(p, kernelsim.SIGKILL)
				p.CPU.PendingTrap = kernelsim.ErrKilled
			}
		}
	}
	return g, nil
}

// register records g as the checking engine of p's CR3 and, under
// Policy.Async, attaches its process stream to the module's async pool
// (created on first use).
func (m *KernelModule) register(p *kernelsim.Process, g *Guard) {
	pol := g.Policy
	m.mu.Lock()
	m.guards[p.CR3] = g
	if pol.Async && m.apool == nil {
		m.apool = NewAsyncPool(pol.AsyncWorkers)
		m.ownsAPool = true
	}
	apool := m.apool
	m.mu.Unlock()
	if pol.Async {
		g.EnableAsync(apool)
	}
}

// installEndpoints replaces the syscall-table entries of the policy's
// endpoints with the module's interceptor (once per syscall).
func (m *KernelModule) installEndpoints(pol Policy) {
	for _, sysno := range pol.Endpoints {
		if m.installed[sysno] {
			continue
		}
		m.installed[sysno] = true
		m.K.Intercept(sysno, m.onEndpoint)
	}
}

// Guards returns every registered guard (fleet stats aggregation).
func (m *KernelModule) Guards() []*Guard {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Guard, 0, len(m.guards))
	for _, g := range m.guards {
		out = append(out, g)
	}
	return out
}

// Unprotect removes a process's guard (its interceptors remain for other
// protected processes and simply pass unprotected callers through).
func (m *KernelModule) Unprotect(p *kernelsim.Process) {
	m.mu.Lock()
	delete(m.guards, p.CR3)
	m.mu.Unlock()
}

// onEndpoint is the alternative syscall handler (§5.2): it identifies the
// caller by CR3, forwards unprotected processes to the original handler,
// and runs the flow check for protected ones.
func (m *KernelModule) onEndpoint(p *kernelsim.Process, sysno uint64) error {
	m.mu.Lock()
	g, ok := m.guards[p.CR3]
	m.mu.Unlock()
	if !ok {
		return nil // not the protected process: forward
	}
	res := m.check(g)
	if res.Verdict == VerdictViolation {
		m.report(ViolationReport{
			PID: p.PID, Process: p.Name, Syscall: sysno, Reason: res.Reason,
		})
		m.K.Kill(p, kernelsim.SIGKILL)
		return kernelsim.ErrKilled
	}
	return nil
}

func regionSizes() []int {
	sizes := make([]int, DefaultToPARegions)
	for i := range sizes {
		sizes[i] = DefaultToPARegion
	}
	return sizes
}

package ipt

import (
	"fmt"

	"flowguard/internal/isa"
	"flowguard/internal/trace"
)

// Model-specific registers of the trace unit (real Intel numbering).
const (
	MSRRTITOutputBase uint32 = 0x560
	MSRRTITOutputMask uint32 = 0x561
	MSRRTITCtl        uint32 = 0x570
	MSRRTITStatus     uint32 = 0x571
	MSRRTITCR3Match   uint32 = 0x572
)

// IA32_RTIT_CTL bit positions (real Intel layout). FlowGuard's kernel
// module sets TraceEn+BranchEn+User+CR3Filter+ToPA and clears OS and
// FabricEn (§5.1).
const (
	CtlTraceEn   uint64 = 1 << 0
	CtlOS        uint64 = 1 << 2
	CtlUser      uint64 = 1 << 3
	CtlFabricEn  uint64 = 1 << 6
	CtlCR3Filter uint64 = 1 << 7
	CtlToPA      uint64 = 1 << 8
	CtlBranchEn  uint64 = 1 << 13
)

// CyclesPerTraceByte is the calibrated cost of emitting one trace byte,
// covering packetization and the memory-subsystem write bandwidth. With
// the workloads' ~0.1 trace bytes per retired instruction this yields the
// ~3% tracing overhead of Table 1 (see EXPERIMENTS.md).
const CyclesPerTraceByte = 0.35

// WriteFault intercepts the tracer's packet writes on their way to the
// ToPA buffer, modeling transport-level trace damage (bit flips, lost or
// delayed bursts, buffer-flooding). Implementations receive the packet
// bytes about to land at stream offset off and return the bytes to write
// instead — possibly p itself, possibly empty. They must not retain p
// past the call.
type WriteFault interface {
	Corrupt(p []byte, off uint64) []byte
}

// Tracer is one core's trace unit. It implements trace.Sink so the CPU
// can feed it retired branches, filters and compresses them per the MSR
// configuration, and streams packet bytes into the ToPA buffer.
type Tracer struct {
	ctl      uint64
	cr3Match uint64
	curCR3   uint64

	Out *ToPA

	// Fault, if non-nil, filters every packet write (fault injection).
	Fault WriteFault

	// PSBPeriod is the target byte distance between stream sync points.
	PSBPeriod int

	lastIP   uint64
	tntBits  uint8
	tntCount int
	sincePSB int
	started  bool

	// Stats.
	Packets     uint64
	TNTBitCount uint64
	TIPCount    uint64
	Branches    uint64
	// EncodeFaults counts packets the encoder could not produce
	// (impossible internal state); each one is signaled in-band with an
	// OVF packet so decoders resynchronize instead of misattributing.
	EncodeFaults uint64

	scratch []byte
}

// NewTracer returns a trace unit writing into out (a default two-region
// ToPA if nil).
func NewTracer(out *ToPA) *Tracer {
	if out == nil {
		out = NewToPA()
	}
	return &Tracer{Out: out, PSBPeriod: 2048}
}

// WriteMSR programs a trace-unit register, as the kernel module does with
// WRMSR. Unknown registers return an error.
func (t *Tracer) WriteMSR(msr uint32, v uint64) error {
	switch msr {
	case MSRRTITCtl:
		t.ctl = v
	case MSRRTITCR3Match:
		t.cr3Match = v
	case MSRRTITOutputBase, MSRRTITOutputMask, MSRRTITStatus:
		// Output configuration is modeled by the ToPA object itself.
	default:
		return fmt.Errorf("ipt: unknown MSR %#x", msr)
	}
	return nil
}

// ReadMSR reads back a trace-unit register.
func (t *Tracer) ReadMSR(msr uint32) (uint64, error) {
	switch msr {
	case MSRRTITCtl:
		return t.ctl, nil
	case MSRRTITCR3Match:
		return t.cr3Match, nil
	default:
		return 0, fmt.Errorf("ipt: unknown MSR %#x", msr)
	}
}

// SetCR3 models a context switch: the kernel writes the new address-space
// root, the trace unit re-evaluates its CR3 filter, and — as real IPT
// does for CR3 writes while TraceEn is set — emits a PIP packet so
// decoders can attribute subsequent packets to the right process.
func (t *Tracer) SetCR3(cr3 uint64) {
	if cr3 == t.curCR3 {
		return
	}
	t.curCR3 = cr3
	// PIP is only emitted while packet generation is contextually
	// enabled: with CR3 filtering, switching *away* from the protected
	// process produces nothing (ContextEn gating), and switching *to* it
	// marks the re-entry.
	if t.Enabled() && t.started {
		t.scratch = t.scratch[:0]
		t.flushTNT()
		t.scratch = appendPIP(t.scratch, cr3)
		t.Packets++
		t.write(t.scratch)
	}
}

// Enabled reports whether packet generation is currently active.
func (t *Tracer) Enabled() bool {
	if t.ctl&CtlTraceEn == 0 || t.ctl&CtlBranchEn == 0 {
		return false
	}
	if t.ctl&CtlCR3Filter != 0 && t.curCR3 != t.cr3Match {
		return false
	}
	return true
}

// Branch implements trace.Sink: one retired CoFI in, zero or more packet
// bytes out (Table 3).
func (t *Tracer) Branch(b trace.Branch) {
	if !t.Enabled() {
		return
	}
	// User-only filtering: with the OS bit clear, kernel-mode flow is
	// never seen; the far-transfer handling below covers the boundary.
	if t.ctl&CtlUser == 0 {
		return
	}
	t.Branches++
	t.scratch = t.scratch[:0]
	if !t.started {
		t.started = true
		t.emitPSB(b.Source)
	}
	switch b.Class {
	case isa.CoFIDirect:
		// Unconditional direct branches are statically known: no output.
	case isa.CoFICond:
		t.tntBits |= boolBit(b.Taken) << t.tntCount
		t.tntCount++
		t.TNTBitCount++
		if t.tntCount == maxTNTBits {
			t.flushTNT()
		}
	case isa.CoFIIndirect, isa.CoFIRet:
		t.flushTNT()
		t.scratch = appendIPPacket(t.scratch, opTIP, b.Target, &t.lastIP)
		t.TIPCount++
		t.Packets++
	case isa.CoFIFarTransfer:
		// FUP with the event source, TIP.PGD entering the kernel, then
		// TIP.PGE at the user-space resume address. Under user-only
		// filtering the kernel interval is invisible, so the three
		// packets are adjacent.
		t.flushTNT()
		t.scratch = appendIPPacket(t.scratch, opFUP, b.Source, &t.lastIP)
		t.scratch = appendSuppressedIP(t.scratch, opTIPPGD)
		t.scratch = appendIPPacket(t.scratch, opTIPPGE, b.Target, &t.lastIP)
		t.Packets += 3
	}
	if len(t.scratch) > 0 {
		t.write(t.scratch)
	}
	t.maybePSB(b.Target)
}

// TraceContext is the per-task slice of a shared-core trace unit's
// mutable state. A multi-core scheduler saves the outgoing task's
// context and restores the incoming one at every slice boundary, so the
// packet bytes each task contributes to the shared stream are identical
// to what a dedicated CR3-filtered tracer would have produced — pending
// TNT bits included (hardware keeps them across a context switch; they
// drain into the stream only when the same task runs again).
type TraceContext struct {
	LastIP   uint64
	TNTBits  uint8
	TNTCount int
	SincePSB int
	Started  bool
}

// SaveContext captures the running task's packetization state.
func (t *Tracer) SaveContext() TraceContext {
	return TraceContext{
		LastIP: t.lastIP, TNTBits: t.tntBits, TNTCount: t.tntCount,
		SincePSB: t.sincePSB, Started: t.started,
	}
}

// RestoreContext reinstates state captured by SaveContext.
func (t *Tracer) RestoreContext(c TraceContext) {
	t.lastIP, t.tntBits, t.tntCount = c.LastIP, c.TNTBits, c.TNTCount
	t.sincePSB, t.started = c.SincePSB, c.Started
}

// SwitchTask performs a context switch on a shared-core tracer: the
// outgoing task's packetization state is saved into prev (nil for the
// first switch on a core), the incoming task's restored, the CR3 view
// updated, and a bare PIP + MODE switch marker written to the stream —
// exactly the attribution breadcrumbs hardware leaves for a trace
// demultiplexer. The marker bytes pass the fault filter (slice-boundary
// chaos targets them) but do not advance the PSB countdown: the restored
// task's sincePSB must reflect only its own bytes, or interleaving would
// perturb its PSB cadence relative to dedicated tracing and break the
// demux byte-identity property.
func (t *Tracer) SwitchTask(prev *TraceContext, next TraceContext, cr3 uint64, mode uint8) {
	if prev != nil {
		*prev = t.SaveContext()
	}
	t.RestoreContext(next)
	t.curCR3 = cr3
	if t.ctl&CtlTraceEn == 0 {
		return
	}
	t.scratch = t.scratch[:0]
	t.scratch = appendPIP(t.scratch, cr3)
	t.scratch = appendMODE(t.scratch, mode)
	t.Packets += 2
	keep := t.sincePSB
	t.write(t.scratch)
	t.sincePSB = keep
}

// AsyncEvent records an asynchronous control transfer performed by the
// kernel rather than by a retired branch — signal delivery redirecting
// the interrupted flow into a handler, or sigreturn restoring it. The
// shape is a FUP carrying the pre-event address immediately followed by
// a TIP with the new one; that adjacency (never produced by any retired
// branch class) is what decoders classify as an async edge
// (TIPRecord.Async) and flow walkers admit without consulting the CFG.
func (t *Tracer) AsyncEvent(from, to uint64) {
	if !t.Enabled() || t.ctl&CtlUser == 0 {
		return
	}
	t.scratch = t.scratch[:0]
	if !t.started {
		t.started = true
		t.emitPSB(from)
	}
	t.flushTNT()
	t.scratch = appendIPPacket(t.scratch, opFUP, from, &t.lastIP)
	t.scratch = appendIPPacket(t.scratch, opTIP, to, &t.lastIP)
	t.TIPCount++
	t.Packets += 2
	t.write(t.scratch)
	t.maybePSB(to)
}

// Flush drains any pending TNT bits into the output buffer (end-of-window
// readout by the checker).
func (t *Tracer) Flush() {
	t.scratch = t.scratch[:0]
	t.flushTNT()
	if len(t.scratch) > 0 {
		t.write(t.scratch)
	}
}

func (t *Tracer) flushTNT() {
	if t.tntCount == 0 {
		return
	}
	out, err := appendTNT(t.scratch, t.tntBits, t.tntCount)
	if err != nil {
		// The run cannot be encoded; dropping it silently would let a
		// decoder misattribute every later outcome. Signal the loss
		// in-band exactly as hardware overflow does.
		out = append(t.scratch, 0x02, extOVF)
		t.EncodeFaults++
	}
	t.scratch = out
	t.tntBits, t.tntCount = 0, 0
	t.Packets++
}

func (t *Tracer) emitPSB(ip uint64) {
	t.scratch = appendPSB(t.scratch)
	t.scratch = appendPIP(t.scratch, t.curCR3)
	// PSB+ context: an FUP carrying the current IP, then PSBEND. The
	// full decoder starts its instruction walk here; last-IP resets on
	// both sides.
	t.lastIP = 0
	t.scratch = appendIPPacket(t.scratch, opFUP, ip, &t.lastIP)
	t.scratch = append(t.scratch, 0x02, extPSBEND)
	t.sincePSB = 0
	t.Packets += 4
}

func (t *Tracer) maybePSB(ip uint64) {
	if t.sincePSB < t.PSBPeriod {
		return
	}
	t.scratch = t.scratch[:0]
	t.flushTNT()
	t.emitPSB(ip)
	t.write(t.scratch)
}

func (t *Tracer) write(p []byte) {
	if t.Fault != nil {
		p = t.Fault.Corrupt(p, t.Out.TotalWritten())
	}
	if len(p) == 0 {
		return
	}
	t.Out.Write(p)
	t.sincePSB += len(p)
}

// Cycles implements the calibrated cost model: tracing work is
// proportional to emitted trace bytes.
func (t *Tracer) Cycles() uint64 {
	return uint64(float64(t.Out.TotalWritten()) * CyclesPerTraceByte)
}

var _ trace.Sink = (*Tracer)(nil)

func boolBit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

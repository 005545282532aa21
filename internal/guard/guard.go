// Package guard implements FlowGuard's runtime protection engine — the
// paper's primary contribution (§3.2, §5): hybrid control-flow checking
// over Intel-PT-style traces with a fast path that never touches program
// binaries and a slow path with full precision.
//
// The fast path (§5.3) packet-scans the ToPA buffer from the most recent
// sync points, extracts at least Policy.PktCount TIP records striding
// across more than one module (at least one inside the executable), and
// binary-searches each consecutive TIP pair on the credit-labeled
// ITC-CFG. An edge absent from the graph is a definite violation (the
// graph is conservative, so checking introduces no false positives). An
// edge present but low-credit, or whose TNT-run signature was never seen
// in training, makes the window suspicious: the slow path re-checks it by
// fully decoding the trace at the instruction-flow layer and enforcing
// the fine-grained policies — TypeArmor-restricted forward edges and a
// shadow stack for returns. Clean slow-path verdicts are cached so
// subsequent fast paths accept the same edges (§7.1.1).
//
// Every check is one routine over one stream against one label
// artifact. A stream is a trace unit's ToPA plus the window cache over
// it (and the async pipeline, when attached): the guard's process
// stream, or in multicore mode one demuxed stream per thread, the main
// thread's being the process stream. The labels are one immutable
// itc.Artifact — fixed for fleet guards, adopted from the live graph's
// latest publication at every check otherwise.
//
// Checking is amortized-incremental: each stream keeps its decoded TIP
// tail between checks, keyed by the buffer's write offset, so each
// check fast-decodes only the bytes appended since the previous one
// instead of re-scanning the buffered suffix. The steady-state check
// path performs no allocations. Guards for different processes may run
// checks concurrently (see CheckPool); slow-path verdict caches are
// striped for that purpose and may be shared between the guards of
// processes running the same binaries.
package guard

import (
	"fmt"
	"sync"

	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// Calibrated fast-path cost constants (see EXPERIMENTS.md). Together with
// ipt.CyclesPerDecodedInstr they reproduce the paper's ~60x fast/slow gap
// (§7.2.2).
const (
	// CyclesPerFastDecodeByte is the packet-grammar scan cost per trace
	// byte (a table-driven byte state machine sustains a couple of
	// bytes per cycle).
	CyclesPerFastDecodeByte = 0.5
	// CyclesPerTIPCheck covers the two binary searches, the credit and
	// TNT-signature assessment, and cache probes for one TIP record.
	CyclesPerTIPCheck = 130
	// CyclesPerInterception is the syscall-table detour, CR3
	// discrimination and bookkeeping cost per intercepted endpoint (the
	// "other" bar of Figure 5).
	CyclesPerInterception = 300
)

// Policy holds the §7.1.1 knobs.
type Policy struct {
	// PktCount is the minimum number of TIP packets checked per trigger
	// (lower bound 30 in the paper, defeating history-flushing attacks).
	// The checked window always also spans more than one module with at
	// least one TIP inside the executable, extending backwards if needed
	// (the §5.3 module-stride rule against return-to-lib history
	// flushing).
	PktCount int
	// CredRatio is the fraction of checked edges that must be
	// high-credit with matching TNT for the fast path to pass on its
	// own; 1.0 (the paper's setting) sends any low-credit edge to the
	// slow path. A value above 1 is a bar no window meets: every window
	// with a checked pair goes to the slow path — the naive full-decode
	// strawman of §2/§3.1 (the naive-full-decode row of the harness's
	// mode matrix).
	CredRatio float64
	// Endpoints lists the intercepted security-sensitive syscalls.
	Endpoints []uint64
	// CredMinCount raises the high-credit bar to edges observed at least
	// this many times in training — the multi-level credit labeling §4.3
	// sketches. Zero or one is the paper's binary labeling.
	CredMinCount uint32
	// PathSensitive enables the future-work extension of §7.1.2: windows
	// must also match trained consecutive-edge pairs, defeating attacks
	// that stitch individually-trained edges into novel orders (at the
	// cost of more slow-path escalations).
	PathSensitive bool
	// CheckOnPMI runs a flow check every time the ToPA buffer fills —
	// the worst-case endpoint fallback §7.1.2 proposes against
	// endpoint-pruning attacks that avoid all sensitive syscalls.
	CheckOnPMI bool
	// OnDegraded selects the fail behavior when the trace window cannot
	// be verified — overflow, gap, grammar-level corruption — or when an
	// overloaded CheckPool sheds the check (§7.1.2 worst cases). The
	// zero value FailClosed treats unverifiable as a violation.
	OnDegraded DegradedMode
	// Async enables the asynchronous checking pipeline (§6 offloading,
	// DESIGN.md §9): ToPA region-full events capture filled trace
	// windows for a background AsyncPool, whose workers decode them
	// between endpoints, so an endpoint check decodes only the residual
	// tail inline. Verdicts are identical to synchronous checking — the
	// gate always completes the residual decode itself before deciding.
	Async bool
	// AsyncWorkers sizes the pool KernelModule creates on demand when
	// Async is set and no pool was attached (0 = DefaultAsyncWorkers).
	AsyncWorkers int
}

// DefaultEndpoints is the PathArmor-like sensitive-syscall set the paper
// adopts (§5.2), plus sigreturn (SROP) and write (the detection points of
// §7.1.2).
func DefaultEndpoints() []uint64 {
	return []uint64{
		kernelsim.SysExecve,
		kernelsim.SysMmap,
		kernelsim.SysMprotect,
		kernelsim.SysSigreturn,
		kernelsim.SysWrite,
	}
}

// DefaultPolicy returns the paper's evaluated configuration.
func DefaultPolicy() Policy {
	return Policy{
		PktCount:  30,
		CredRatio: 1.0,
		Endpoints: DefaultEndpoints(),
	}
}

// Verdict is the outcome of one flow check.
type Verdict uint8

// Verdicts.
const (
	VerdictClean Verdict = iota
	VerdictViolation
)

func (v Verdict) String() string {
	if v == VerdictClean {
		return "clean"
	}
	return "violation"
}

// Result describes one flow check.
type Result struct {
	Verdict Verdict
	// Reason is a human-readable diagnosis for violations.
	Reason string
	// TIPs is the number of TIP records checked.
	TIPs int
	// LowCredit is the number of checked edges that were in the graph
	// but not credibly trained.
	LowCredit int
	// UsedSlowPath reports the slow path ran.
	UsedSlowPath bool
	// Health classifies the trace window the check ran over.
	Health TraceHealth
	// Degraded reports the verdict was resolved under Policy.OnDegraded
	// (damaged window or shed pooled check) rather than by a clean
	// hybrid check.
	Degraded bool
	// Retries is the number of SlowPathRetry recovery attempts consumed.
	Retries int
	// DecodeCycles is the fast packet-scan cost; CheckCycles the graph
	// search and credit assessment; OtherCycles the interception
	// bookkeeping; SlowCycles the instruction-flow decode and precise
	// checking. These are the four Figure 5 overhead components (trace
	// cycles are metered by the tracer itself).
	DecodeCycles, CheckCycles, OtherCycles, SlowCycles uint64
}

// FastCycles returns the total fast-path cost of the check.
func (r *Result) FastCycles() uint64 { return r.DecodeCycles + r.CheckCycles }

// edgeKey identifies a (source, target, TNT signature) triple in the
// slow-path verdict cache.
type edgeKey struct {
	src, dst, sig uint64
}

// winState is the incremental window cache: the streaming decoder over
// the logical trace stream and the stream offset it has consumed. It
// keeps no copy of the trace: between checks only the appended bytes are
// decoded, straight out of the ToPA (ToPA.FeedRange), and the slow path
// copies its window region out of the ToPA only when it runs. A wrap
// that outran the previous check falls back to a full resynchronizing
// rescan of the resident buffer.
type winState struct {
	src   *ipt.ToPA
	total uint64 // stream offset fed into dec
	dec   ipt.WindowDecoder
	// checkedTotal is the stream offset at the end of the previous
	// check — the last byte a verdict ever vouched for. Synchronously it
	// always equals total between checks; with the async pipeline,
	// workers advance total ahead of it, and the wrap-loss rule keys off
	// checkedTotal so loss classification is identical in both modes
	// (a span evicted before any verdict covered it is a loss even if a
	// worker managed to pre-decode part of it).
	checkedTotal uint64
	// asyncErr is a packet-grammar error an async worker hit while
	// pre-decoding; the next check replays it through the same malformed
	// path the synchronous decoder would have taken. Workers stop
	// feeding once it is set.
	asyncErr error
	// prevOVF is the decoder's OVF count at the previous check; the
	// delta classifies overflow between checks.
	prevOVF int
	// wrapLoss marks the current check as following an unmarked loss:
	// either a wrap outran the cache (trace between the previous check
	// and the resident window evicted unchecked) or the unwrapped
	// stream's prefix was damaged and skipped unattributed. No OVF
	// packet marks these, so the health classification and the
	// SlowPathRetry tail rule consume this flag instead.
	wrapLoss bool
	// keep is the stream offset of the first record of the last window
	// selectWindow found qualifying (0: none since the decoder's Reset).
	// No later window starts before it, so trim drops the records before
	// it along with those the ToPA no longer holds.
	keep int
}

// Module classes selectWindow caches in ipt.TIPRecord.Mod. Zero is
// "not yet resolved": the window decoder emits every record with it.
const (
	modUnresolved uint8 = iota
	modNone             // the target lies in no module's code
	modExec             // the executable
	modLib              // any other module
)

// modClass resolves the module class of one trace target.
//
//fg:hotpath
func modClass(as *module.AddressSpace, ip uint64) uint8 {
	i := as.ModuleIndex(ip)
	switch {
	case i < 0:
		return modNone
	case as.Mods[i] == as.Exec:
		return modExec
	}
	return modLib
}

// modScratch evaluates the module-stride rule over a TIP window. "More
// than one module, at least one the executable" holds exactly when the
// window has a record in the executable and one in another module, so
// two flags are the whole state, whatever the number of modules.
type modScratch struct {
	inExec, inLib bool
}

// add folds record r into the scratch, resolving its module class on
// the first visit and caching it in r.Mod: a record is resolved once,
// not at every check whose window walks over it.
//
//fg:hotpath
func (m *modScratch) add(as *module.AddressSpace, r *ipt.TIPRecord) {
	c := r.Mod
	if c == modUnresolved {
		c = modClass(as, r.IP)
		r.Mod = c
	}
	m.inExec = m.inExec || c == modExec
	m.inLib = m.inLib || c == modLib
}

func (m *modScratch) ok() bool { return m.inExec && m.inLib }

// Guard is the flow-checking engine bound to one protected process image.
//
// Check is safe for concurrent use (calls on the same guard serialize on
// an internal mutex; the window cache and tracer are single streams).
// Guards of *different* processes check fully in parallel: the label
// artifact is immutable and the approval cache is striped.
type Guard struct {
	AS   *module.AddressSpace
	OCFG *cfg.Graph
	// ITC, when non-nil, is the live graph the guard takes its labels
	// from: every check adopts the graph's currently published artifact
	// (Graph.Artifact, one atomic load). Guards with a fixed artifact —
	// fleet guards built by Binary.NewGuard, or UseArtifact — leave it
	// nil.
	ITC *itc.Graph
	// Tracer is the process's trace unit; its ToPA is the sink of the
	// guard's process stream. Set at construction.
	Tracer *ipt.Tracer
	Policy Policy

	// art is the one label artifact the fast path and the slow path's
	// approval step probe (DESIGN.md §10).
	art *itc.Artifact

	// appr caches slow-path "no attack" verdicts; it may be shared
	// between guards via ShareApprovals.
	appr *ApprovalCache

	// mu serializes checks on this guard.
	mu sync.Mutex

	// inCheck guards against PMI re-entrance: a check triggered by the
	// buffer-full hook must not recurse when its own reads flush packets.
	inCheck bool

	// main is the process stream: the window cache over Tracer's ToPA,
	// and the async pipeline attachment when EnableAsync ran. In
	// multicore mode it is also the main thread's demuxed stream.
	main stream

	// streamLoss is set by NoteStreamLoss when the multicore demux
	// reports this process's spans lost or misattributed in a shared
	// per-core stream; the next window classification consumes it as an
	// unmarked loss (wrap-loss shape: no OVF packet marks the hole).
	streamLoss bool

	Stats Stats

	// slowRegion is the slow path's window bytes, copied out of the
	// ToPA and reused from check to check (checks serialize on mu).
	slowRegion []byte
	// slowMemo is the slow path's chain memo over OCFG, built at the
	// first slow path and reused from check to check like slowRegion.
	slowMemo *ipt.ChainMemo
}

// stream is one checked trace stream: a trace unit whose ToPA is the
// sink, the incremental window cache over that sink, and — when the
// stream is attached to an AsyncPool — the captured-window pipeline. The
// guard's process stream is one; in multicore mode each further thread
// of the process has its own, fed by the demux through an unprogrammed
// tracer (Flush is then a no-op). All streams of a process share the
// guard's labels, approval cache, policy and Stats; verdicts stay
// deterministic under preemption because each check reads only its own
// stream, never a sibling's interleaved bytes.
type stream struct {
	tr    *ipt.Tracer
	win   winState
	async *asyncState // nil: checked synchronously
	// memoArt is the artifact the Memo marks on win's records were made
	// under (runChecks). A mark records a CacheLookup answer, which only
	// that artifact vouches for: when the guard's artifact changes, the
	// stream's marks are cleared before any is read.
	memoArt *itc.Artifact
	// slow is the suspended walk of the stream's last clean slow check,
	// which the next slow check over the same region resumes (slowPath);
	// nil until the stream's first clean slow check suspends.
	slow *slowResume
}

// Window-cache reservation (DESIGN.md §5, zero-copy window cache): a
// stream's record storage is set aside when the stream is built, so the
// first checks of a fresh guard do not grow it inside the gate. The
// storage peaks at twice the kept records plus one feed (DropBefore),
// all within one resident buffer. Module-protected nginx, vsftpd and
// openssh sessions peak at about 130, 470 and 850 stored records over
// the kernel module's 2×8 KiB buffer, so one record per 16 bytes of
// capacity (1024 there) holds each of them. Buffers larger than the
// default are sized as the default: they serve long runs whose feeds
// between checks grow the slice anyway, and reserving in proportion
// would cost twice the buffer's bytes.
const (
	traceBytesPerReservedRecord = 16
	maxReservedTraceBytes       = DefaultToPARegions * DefaultToPARegion
)

// reservedRecords is the record storage reserved for a stream whose
// ToPA holds capacity bytes.
func reservedRecords(capacity int) int {
	return min(capacity, maxReservedTraceBytes) / traceBytesPerReservedRecord
}

// newStream is the one constructor of a checked stream over tr: the
// guard's process stream and every further thread's demuxed stream. A
// guard built without a tracer (tests of construction alone) reserves
// nothing.
func newStream(tr *ipt.Tracer) stream {
	s := stream{tr: tr}
	if tr != nil {
		s.win.dec.Reserve(reservedRecords(tr.Out.Capacity()))
	}
	return s
}

// newGuard is the one constructor behind New, Binary.NewGuard and
// ForkGuard.
func newGuard(as *module.AddressSpace, ocfg *cfg.Graph, ig *itc.Graph, art *itc.Artifact, appr *ApprovalCache, tr *ipt.Tracer, pol Policy) *Guard {
	if ig != nil {
		art = ig.Artifact()
	}
	return &Guard{
		AS: as, OCFG: ocfg, ITC: ig, Tracer: tr, Policy: pol,
		art: art, appr: appr, main: newStream(tr),
	}
}

// New builds a guard over a loaded image, its O-CFG and trained ITC-CFG,
// and the tracer observing the process.
func New(as *module.AddressSpace, ocfg *cfg.Graph, ig *itc.Graph, tr *ipt.Tracer, pol Policy) *Guard {
	return newGuard(as, ocfg, ig, nil, NewApprovalCache(), tr, pol)
}

// ShareApprovals replaces the guard's slow-path verdict cache, letting
// several guards over the same binaries pool their approvals (a clean
// slow-path verdict in one process then serves every sibling's fast
// path). Call before checking starts.
func (g *Guard) ShareApprovals(c *ApprovalCache) { g.appr = c }

// Approvals returns the guard's slow-path verdict cache.
func (g *Guard) Approvals() *ApprovalCache { return g.appr }

// InvalidateWindow drops the incremental window cache, forcing the next
// check to rescan the buffered trace from scratch (tests and benchmarks
// use this to measure the non-amortized path).
func (g *Guard) InvalidateWindow() {
	g.mu.Lock()
	g.main.win.src = nil
	g.mu.Unlock()
}

// window collects the TIP records to check from stream s. The
// underlying rule is the paper's (§5.3: walk the PSB sync points
// backwards until the policy's packet count and module-stride
// requirements hold — "it is not required to decode the whole ToPA
// buffer"), but decoding is incremental: the stream's tracer is flushed,
// and only bytes appended since the previous check are fast-decoded,
// straight out of the ToPA; the decoded TIP tail and sync points are
// retained. It also returns the stream offset of the sync point the
// window region opens at, so a slow-path re-check decodes the same
// bounded span [psb, s.win.total); the number of newly scanned bytes for
// the cost model; and the trace-health classification Policy.OnDegraded
// responds to: overflow since the last check (or an unresynchronized
// overflow at the tail) is HealthResynced, a wrapped buffer with no
// resident sync point is HealthGap, and grammar-level corruption is
// HealthMalformed alongside the error. On a decode error the window
// cache is dropped — the decoder state is unusable — so a later check
// restarts from a fresh rescan.
//
//fg:hotpath steady-state window maintenance must not allocate
func (g *Guard) window(s *stream) (tips []ipt.TIPRecord, psb uint64, scanned uint64, health TraceHealth, err error) {
	s.tr.Flush()
	w, topa := &s.win, s.tr.Out
	// Whatever this call classifies is "checked" for the next call's
	// loss rule: synchronously checkedTotal therefore always equals
	// total between calls, reducing the rule to the classic
	// outran-the-cache test.
	defer w.noteWindowed()
	total, held, wrapped := topa.State()
	w.wrapLoss = false
	if g.streamLoss {
		// The demux reported spans of this process's shared-core stream
		// lost or misattributed (damage inside a span, or an unmarked
		// context switch). No OVF packet marks the hole in the per-process
		// stream, so it is folded into the wrap-loss classification: the
		// health degrades to HealthResynced and the tail rule demands a
		// full-strength window past the loss.
		g.streamLoss = false
		g.Stats.StreamLosses++
		w.wrapLoss = true
	}
	fresh := w.src != topa || total < w.total
	if !fresh && total > w.checkedTotal && total-w.checkedTotal > uint64(held) {
		// The buffer wrapped past the last *checked* offset: the span
		// between the previous check and the resident window was evicted
		// without any verdict ever vouching for it — the §7.1.2 worst
		// case. Async workers may have pre-decoded part of that span, but
		// the synchronous checker could never have seen it, so the
		// prefetched decoder state is discarded and the check classified
		// exactly as the synchronous path classifies it. Rescan the
		// resident buffer (a first check over an already-wrapped buffer is
		// NOT a loss: no coverage was promised before tracking began).
		fresh = true
		w.wrapLoss = true
		g.Stats.Resyncs++
	}
	if !fresh {
		// The cost model charges every byte decoded since the last
		// verdict, whether a worker pre-decoded it or the gate does the
		// residual below — the work is the same, only its placement
		// relative to the syscall differs.
		scanned = total - w.checkedTotal
		if w.asyncErr != nil {
			// A worker hit this grammar error pre-decoding bytes the
			// synchronous checker would have decoded at this check;
			// resolve it exactly as the inline feed below would have.
			ferr := w.asyncErr
			w.asyncErr = nil
			w.src = nil
			g.Stats.Malformed++
			return nil, total, scanned, HealthMalformed, fmt.Errorf("guard: fast decode: %w", ferr)
		}
	}
	if !fresh && total > w.total {
		ok, ferr := topa.FeedRange(&w.dec, w.total, total)
		if !ok {
			// Unreachable once the checkedTotal rule above passed
			// (total-w.total <= total-w.checkedTotal <= held); kept as a
			// defensive resynchronization with identical classification.
			fresh = true
			w.wrapLoss = true
			g.Stats.Resyncs++
		} else {
			w.total = total
			if ferr != nil {
				w.src = nil
				g.Stats.Malformed++
				return nil, total, scanned, HealthMalformed, fmt.Errorf("guard: fast decode: %w", ferr)
			}
		}
	}
	if fresh {
		// Any pre-decoded async state (including a pending worker error)
		// predates this rescan and is superseded by it, and so does a
		// suspended slow-path walk: after a reset the offsets it read at
		// name other bytes.
		w.asyncErr = nil
		s.dropSlowWalk()
		w.src, w.total = topa, total
		lo := total - uint64(held)
		w.dec.Reset(int(lo))
		w.keep = 0
		w.prevOVF = 0
		scanned = uint64(held)
		// The resident span just read cannot be refused unless a writer
		// broke the no-writer-during-check invariant (see slowPath); the
		// decoder then holds no sync point and the window is a gap.
		if _, ferr := topa.FeedRange(&w.dec, lo, total); ferr != nil {
			w.src = nil
			g.Stats.Malformed++
			return nil, total, scanned, HealthMalformed, fmt.Errorf("guard: fast decode: %w", ferr)
		}
	}
	// Forget history the ToPA itself no longer holds (the checker must
	// not see deeper windows than the wrapped buffer provides) and the
	// records before the last qualifying window, which no window reaches.
	w.trim(total - uint64(held))
	// Trace-health classification (§7.1.2): new OVF packets mean bytes
	// were lost since the last check; an overflow whose resynchronizing
	// PSB has not arrived yet leaves the stream tail unvouched-for.
	if d := w.dec.OVFTotal() - w.prevOVF; d > 0 {
		g.Stats.Overflows += uint64(d)
		w.prevOVF = w.dec.OVFTotal()
		health = HealthResynced
	} else if w.dec.OVFTotal() > 0 && !w.dec.Synced() {
		health = HealthResynced
	} else if w.wrapLoss {
		// Checked coverage has a hole even though the resident stream
		// decodes cleanly: wrap loss is overflow loss without the
		// courtesy of an OVF marker.
		health = HealthResynced
	}
	pts := w.dec.SyncPoints()
	if len(pts) == 0 {
		if held > 0 {
			// Trace exists but not one resident byte can be attributed.
			// Wrapped: everything postdates the last sync point the
			// buffer ever held (a PAD flood lands here). Unwrapped: a
			// clean stream always opens with a PSB, so the sync points
			// themselves were destroyed. Either way, reading this as
			// "nothing traced" would pass an unverifiable window clean.
			g.Stats.Gaps++
			return nil, total, scanned, HealthGap, nil
		}
		return nil, total, scanned, health, nil // nothing traced yet
	}
	if !wrapped && pts[0] > int(total-uint64(held)) {
		// The stream does not open with a sync point even though nothing
		// wrapped away: the prefix was damaged and skipped unattributed.
		// Unmarked loss, like a wrap past the cache — the tail rule must
		// demand a full-strength window past the skip.
		w.wrapLoss = true
		if health == HealthClean {
			health = HealthResynced
		}
	}
	tips, p, ok := g.selectWindow(w.dec.Tips(), pts)
	if ok && len(tips) > 0 {
		w.keep = tips[0].Off
	}
	return tips, uint64(p), scanned, health, nil
}

// trim forgets the sync points before stream offset lo, the oldest byte
// the ToPA still holds, and the records before both lo and w.keep, in
// amortized O(1) per record (ipt.WindowDecoder.DropBefore). It is the one
// trim rule of the window cache: window() applies it at every check and
// async drains between checks. A cutoff beyond the decoded stream — a
// drain trailing the producer by more than the buffer — is left to the
// next check's wrap-loss rule.
//
// Dropping the records before w.keep changes no window: appending
// records only lengthens a qualifying suffix and only adds modules to
// it, so every later qualifying suffix starts at or after this one, and
// a later best-effort window starts at the first record after the first
// resident sync point, which is no earlier. When residency evicts part
// of the suffix, every record before w.keep is evicted too. The sync
// points keep the plain residency cutoff: window() reads the first one
// for the unwrapped-prefix-damage rule.
//
//fg:hotpath
func (w *winState) trim(lo uint64) {
	if lo <= w.total {
		w.dec.DropBefore(int(lo), w.keep)
	}
}

// selectWindow picks the checked window from the retained records all
// and the resident sync points pts (ascending, non-empty) in one
// backward pass. It returns the shortest suffix of all that holds at
// least PktCount records and satisfies the module-stride rule, the
// offset of the latest sync point at or before that suffix (the last one
// for an empty window), where the window region opens, and true. Records
// before pts[0] belong to no resident sync point and are never checked;
// when no suffix of the rest qualifies, the window is best effort:
// everything from pts[0] on, and false.
//
// This is the paper's rule (§5.3: walk the PSB sync points backwards
// until the packet-count and module-stride requirements hold, then keep
// the tail that meets them) without the per-sync-point re-walk: whether
// a suffix spans the modules only grows with its length, so the walk
// back from the tail meets the shortest qualifying suffix first, and the
// sync point the per-PSB walk would stop at is the latest one at or
// before that suffix. The walk resolves a record's module only the first
// time it meets the record (modScratch.add caches it in the record), so
// a check pays lookups for the records appended since the previous one.
//
//fg:hotpath
func (g *Guard) selectWindow(all []ipt.TIPRecord, pts []int) ([]ipt.TIPRecord, int, bool) {
	lo := len(all) - len(ipt.TipsFrom(all, pts[0]))
	start := len(all) - g.Policy.PktCount
	if start < lo {
		return all[lo:], pts[0], false
	}
	var s modScratch
	for i := start; i < len(all); i++ {
		s.add(g.AS, &all[i])
	}
	for !s.ok() {
		if start == lo {
			return all[lo:], pts[0], false
		}
		start--
		s.add(g.AS, &all[start])
	}
	k := len(pts) - 1
	for start < len(all) && pts[k] > all[start].Off {
		k--
	}
	return all[start:], pts[k], true
}

// Check runs the hybrid flow check over the guard's process stream. It
// is the routine the kernel module invokes at every intercepted endpoint
// (§5.2 step 5).
func (g *Guard) Check() Result { return g.check(&g.main) }

// check is the one check routine, over one stream against one label
// artifact: fast path always, slow path when the fast path finds the
// window suspicious. A window that is not HealthClean — overflowed,
// gapped, or corrupt — is resolved under Policy.OnDegraded instead of
// the normal hybrid path. Streams of one process serialize on the
// guard's mutex.
//
//fg:hotpath invoked at every intercepted endpoint
func (g *Guard) check(s *stream) Result {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.inCheck = true
	defer g.endCheck()
	if g.ITC != nil {
		g.art = g.ITC.Artifact()
	}
	// Approvals earned against a superseded label generation must be
	// re-earned (mid-run retraining relabels edges).
	g.appr.SyncGen(g.art.Gen())
	g.Stats.Checks++
	tips, psb, scanned, health, err := g.window(s)
	res := Result{TIPs: len(tips), Health: health, OtherCycles: CyclesPerInterception}
	res.DecodeCycles = uint64(float64(scanned) * CyclesPerFastDecodeByte)
	g.Stats.BytesScanned += scanned
	g.judge(&res, s, tips, psb, err)
	g.finish(&res)
	if a := s.async; a != nil {
		g.asyncSettleLocked(a)
	}
	return res
}

// judge decides the window window() collected from stream s: the hybrid
// check for a clean window, Policy.OnDegraded for a damaged one. A window
// whose region the slow path no longer finds in the ToPA (see slowPath)
// is a wrap loss that leaves no window to vouch for the endpoint, and is
// resolved under Policy.OnDegraded too: it never passes as a clean check.
//
//fg:hotpath
func (g *Guard) judge(res *Result, s *stream, tips []ipt.TIPRecord, psb uint64, err error) {
	if err != nil || res.Health != HealthClean {
		s.dropSlowWalk()
		g.resolveDegraded(res, s, tips, psb, err)
	} else if len(tips) >= 2 && !g.runChecks(res, s, tips, psb) {
		g.resolveDegraded(res, s, nil, psb, nil)
	}
}

// endCheck is a named method rather than a closure so deferring it from
// the hot path does not capture g into a heap-allocated func value.
func (g *Guard) endCheck() { g.inCheck = false }

// NoteStreamLoss records that the multicore demux lost or misattributed
// spans of this process's trace in a shared per-core stream (grammar
// damage inside a span, or an unmarked context switch detected at a
// PSB). The next check — on any of the process's streams — classifies
// its window as following an unmarked loss, exactly like a wrap that
// outran the cache. Safe to call concurrently with checks.
func (g *Guard) NoteStreamLoss() {
	g.mu.Lock()
	g.streamLoss = true
	g.mu.Unlock()
}

// noteWindowed is window()'s exit bookkeeping (named method: no
// closure on the hot path).
func (w *winState) noteWindowed() { w.checkedTotal = w.total }

// runChecks applies the hybrid verification to one TIP window of stream
// s, whose region opens at stream offset psb: the ITC-CFG fast loop with
// credit assessment, then the slow path when the window is suspicious
// (a CredRatio above 1 makes every window with a checked pair
// suspicious). TIP pairs straddling an overflow seam (TIPRecord.Resync)
// were never adjacent in the real flow and are skipped rather than
// misjudged. It reports false when the slow path found the region gone
// from the ToPA.
//
//fg:hotpath the per-TIP fast loop
func (g *Guard) runChecks(res *Result, s *stream, tips []ipt.TIPRecord, psb uint64) bool {
	res.CheckCycles += uint64(len(tips)) * CyclesPerTIPCheck
	art := g.art
	if s.memoArt != art {
		clearMemos(s.win.dec.Tips())
		s.memoArt = art
	}
	minCount := g.Policy.CredMinCount
	if minCount == 0 {
		minCount = 1
	}
	suspicious := 0
	checked := 0
	for i := 0; i+1 < len(tips); i++ {
		if tips[i].Async || tips[i+1].Resync || tips[i+1].Async {
			// Overflow seam or kernel-performed asynchronous transfer
			// (signal delivery, sigreturn): not a real consecutive pair.
			// An async TARGET is no anchor either — it resumes mid-block,
			// so the hop from it to the next indirect target is not an
			// indirect-branch edge (the slow path's flow walk still
			// verifies that span precisely).
			continue
		}
		checked++
		// The separate high-credit cache holds count >= 1 edges, so it is
		// only a shortcut under binary labeling. A hit is marked on the
		// pair's target record (its predecessor is fixed once decoded),
		// so later checks over the same records count it without probing
		// again. Only this answer is memoized: Lookup is consulted only on
		// a miss, and an approval can be dropped by ApprovalCache.SyncGen
		// at any check.
		if minCount <= 1 && tips[i+1].Memo != 0 {
			g.Stats.CacheHits++
			g.Stats.HighEdges++
			continue
		}
		src, dst, sig := tips[i].IP, tips[i+1].IP, tips[i+1].TNTSig
		if minCount <= 1 {
			if hit, sigOK := art.CacheLookup(src, dst, sig); hit && sigOK {
				tips[i+1].Memo = 1
				g.Stats.CacheHits++
				g.Stats.HighEdges++
				continue
			}
		}
		l := art.Lookup(src, dst, sig)
		if !l.Exists {
			// Out of the conservative graph: no legitimate execution can
			// produce this pair (§4.2), so this is a definite violation.
			res.Verdict = VerdictViolation
			res.Reason = g.violationReason(src, dst)
			return true
		}
		if l.HighCredit && l.SigMatch && l.Count >= minCount {
			g.Stats.HighEdges++
			continue
		}
		if g.appr.ApprovedEdge(edgeKey{src, dst, sig}) {
			g.Stats.HighEdges++
			g.Stats.CacheHits++
			continue
		}
		g.Stats.LowEdges++
		suspicious++
	}
	// Path-sensitive mode: consecutive edge pairs must have been seen
	// together in training (or approved by a prior slow path).
	if g.Policy.PathSensitive {
		res.CheckCycles += uint64(len(tips)) * CyclesPerTIPCheck / 2
		for i := 0; i+2 < len(tips); i++ {
			if tips[i].Async || tips[i+1].Resync || tips[i+2].Resync ||
				tips[i+1].Async || tips[i+2].Async {
				continue
			}
			a, b, c := tips[i].IP, tips[i+1].IP, tips[i+2].IP
			if k := itc.PathKey(a, b, c); art.PathTrained(k) || g.appr.ApprovedPath(k) {
				continue
			}
			g.Stats.LowEdges++
			suspicious++
		}
	}
	res.LowCredit = suspicious

	// Credibility assessment (§7.1.1): with CredRatio = 1 any suspicious
	// edge forwards the window to the slow path.
	if float64(checked-suspicious) < g.Policy.CredRatio*float64(checked) {
		return g.slowPath(res, s, tips, psb)
	}
	return true
}

// clearMemos drops the high-credit marks of records judged under a
// superseded artifact.
//
//fg:hotpath
func clearMemos(tips []ipt.TIPRecord) {
	for i := range tips {
		tips[i].Memo = 0
	}
}

// violationReason formats the terminal diagnostic. It is deliberately
// not //fg:hotpath: it runs at most once per Check, on the verdict that
// stops the loop, so allocating here is fine — and keeping it a separate
// cold helper keeps fmt-style formatting out of the annotated fast loop.
//
//fg:cold formats the terminal diagnostic at most once per Check
func (g *Guard) violationReason(src, dst uint64) string {
	return "ITC-CFG edge mismatch: " + g.AS.SymbolFor(src) + " -> " + g.AS.SymbolFor(dst)
}

//fg:hotpath
func (g *Guard) finish(res *Result) {
	g.Stats.TIPsChecked += uint64(res.TIPs)
	g.Stats.DecodeCycles += res.DecodeCycles
	g.Stats.CheckCycles += res.CheckCycles
	g.Stats.OtherCycles += res.OtherCycles
	g.Stats.SlowCycles += res.SlowCycles
	if res.UsedSlowPath {
		g.Stats.SlowChecks++
	}
	if res.Verdict == VerdictViolation {
		g.Stats.Violations++
	}
}

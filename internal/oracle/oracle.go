package oracle

import (
	"fmt"

	"flowguard/internal/cfg"
	"flowguard/internal/module"
)

// Verdict of one check.
type Verdict uint8

// Verdicts.
const (
	VerdictClean Verdict = iota
	VerdictViolation
)

// Health classifies the trace evidence backing a check, mirroring the
// production TraceHealth enumeration value-for-value.
type Health uint8

// Health classes.
const (
	HealthClean Health = iota
	HealthResynced
	HealthGap
	HealthMalformed
)

func (h Health) String() string {
	switch h {
	case HealthClean:
		return "clean"
	case HealthResynced:
		return "resynced"
	case HealthGap:
		return "gap"
	case HealthMalformed:
		return "malformed"
	}
	return fmt.Sprintf("health(%d)", uint8(h))
}

// DegradedMode selects how a degraded check resolves, mirroring the
// production enumeration value-for-value.
type DegradedMode uint8

// Degraded modes.
const (
	FailClosed DegradedMode = iota
	FailOpen
	SlowPathRetry
)

// DefaultRetryMax bounds recovery re-decode attempts per check; the
// production guard's constant of the same name must equal it.
const DefaultRetryMax = 3

// Policy mirrors the checking-relevant production policy knobs (cost
// modeling and endpoint selection are out of the oracle's scope).
type Policy struct {
	PktCount      int
	CredRatio     float64
	CredMinCount  uint32
	PathSensitive bool
	OnDegraded    DegradedMode
}

// Result of one reference check.
type Result struct {
	Verdict      Verdict
	Reason       string
	TIPs         int
	LowCredit    int
	UsedSlowPath bool
	Health       Health
	Degraded     bool
	Retries      int
	// FlowInstrs is the number of instructions the slow path's flow walk
	// fetched and decoded, summed over the check's slow paths: the
	// production cycle model charges each one.
	FlowInstrs uint64
}

// Stats accumulates the checking counters whose values the production
// pipeline must reproduce exactly. Cost-model counters (cycles, bytes
// scanned) and cache-shortcut counters are production implementation
// details and deliberately absent.
type Stats struct {
	Checks         uint64
	SlowChecks     uint64
	Violations     uint64
	TIPsChecked    uint64
	HighEdges      uint64
	LowEdges       uint64
	Resyncs        uint64
	Overflows      uint64
	Gaps           uint64
	Malformed      uint64
	DegradedChecks uint64
	FailOpens      uint64
	FailClosures   uint64
	Retries        uint64
	Shed           uint64
}

// TraceSource is the oracle's read-only view of a trace buffer. The
// production ToPA satisfies it structurally; the oracle never imports
// the trace packages.
type TraceSource interface {
	Snapshot() []byte
	TotalWritten() uint64
	Held() int
	Wrapped() bool
}

// edgeApproval keys a slow-path-approved edge.
type edgeApproval struct{ src, dst, sig uint64 }

// Oracle is the reference checker for one traced process. It is
// single-threaded and unhurried: every Check() re-parses its entire
// retained stream from scratch and re-derives the window, trading all of
// the production path's incrementality for obviousness.
type Oracle struct {
	AS     *module.AddressSpace
	OCFG   *cfg.Graph
	Ref    *Ref
	Src    TraceSource
	Policy Policy
	Stats  Stats

	// Retained stream state: everything appended since the last fresh
	// snapshot, never trimmed (the window logic filters by residency
	// instead — keeping the damaged prefix visible is what lets a batch
	// re-parse reproduce the incremental decoder's state exactly).
	started    bool
	invalid    bool
	stream     []byte
	streamBase uint64
	prevTotal  uint64
	prevOVF    int
	wrapLoss   bool

	// Per-parse scratch consulted by degraded resolution.
	curSynced  bool
	curLastOVF int
	// pkts keeps the last parse's backing array, so re-parsing the
	// growing retained stream at every check does not regrow it.
	pkts []Packet

	apprEdges map[edgeApproval]bool
	apprPaths map[[3]uint64]bool
	apprGen   uint64
}

// New builds a reference checker over a trace source.
func New(as *module.AddressSpace, ocfg *cfg.Graph, ref *Ref, src TraceSource, pol Policy) *Oracle {
	return &Oracle{
		AS:        as,
		OCFG:      ocfg,
		Ref:       ref,
		Src:       src,
		Policy:    pol,
		apprEdges: make(map[edgeApproval]bool),
		apprPaths: make(map[[3]uint64]bool),
	}
}

// AdoptApprovals shares another oracle's approval store (the warm-cache
// property drives two oracles over one store).
func (o *Oracle) AdoptApprovals(from *Oracle) {
	o.apprEdges = from.apprEdges
	o.apprPaths = from.apprPaths
	o.apprGen = from.apprGen
}

// window re-derives the check window: sync the retained stream with the
// source, re-parse it wholesale, apply the residency and health rules,
// and select the newest sync-point suffix satisfying the packet-count
// and module-stride policy.
func (o *Oracle) window() (recs []tipRec, region []byte, health Health, err error) {
	total := o.Src.TotalWritten()
	o.wrapLoss = false
	fresh := !o.started || o.invalid || total < o.prevTotal
	if !fresh && total > o.prevTotal {
		delta := total - o.prevTotal
		if delta > uint64(o.Src.Held()) {
			// The producer wrapped past everything retained since the
			// last check: bytes were evicted unchecked.
			fresh = true
			o.wrapLoss = true
			o.Stats.Resyncs++
		} else {
			snap := o.Src.Snapshot()
			o.stream = append(o.stream, snap[uint64(len(snap))-delta:]...)
		}
	}
	if fresh {
		snap := o.Src.Snapshot()
		o.stream = append([]byte(nil), snap...)
		o.streamBase = total - uint64(len(snap))
		o.prevOVF = 0
	}
	o.started, o.invalid, o.prevTotal = true, false, total

	pkts, _, perr := parse(o.pkts[:0], o.stream, int(o.streamBase), true)
	o.pkts = pkts
	o.curSynced = syncedEnd(pkts)
	o.curLastOVF = lastOVFOff(pkts)
	if perr != nil {
		o.invalid = true
		o.Stats.Malformed++
		return nil, nil, HealthMalformed, perr
	}

	// Residency: records that scrolled out of the source buffer are no
	// longer checkable (and their bytes can no longer back a slow path).
	effBase := o.streamBase
	if lo := total - uint64(o.Src.Held()); lo > effBase {
		effBase = lo
	}
	all := recsFrom(extractRecords(pkts), int(effBase))
	pts := syncOffsetsFrom(pkts, int(effBase))

	ovfTot := ovfCount(pkts)
	if d := ovfTot - o.prevOVF; d > 0 {
		o.Stats.Overflows += uint64(d)
		o.prevOVF = ovfTot
		health = HealthResynced
	} else if ovfTot > 0 && !o.curSynced {
		health = HealthResynced
	} else if o.wrapLoss {
		health = HealthResynced
	}

	if len(pts) == 0 {
		if o.Src.Held() > 0 {
			o.Stats.Gaps++
			return nil, nil, HealthGap, nil
		}
		return nil, nil, health, nil // nothing traced yet
	}
	if !o.Src.Wrapped() && uint64(pts[0]) > effBase {
		// Unsyncable prefix in a buffer that never wrapped: the stream
		// head was damaged, not aged out.
		o.wrapLoss = true
		if health == HealthClean {
			health = HealthResynced
		}
	}

	for k := len(pts) - 1; k >= 0; k-- {
		sub := recsFrom(all, pts[k])
		if (len(sub) >= o.Policy.PktCount && o.spansModules(sub)) || k == 0 {
			return o.trim(sub), o.stream[uint64(pts[k])-o.streamBase:], health, nil
		}
	}
	return nil, nil, health, nil
}

// spansModules applies the module-stride rule: the window must span more
// than one module and touch the executable.
func (o *Oracle) spansModules(recs []tipRec) bool {
	mods := make(map[*module.Loaded]bool)
	inExec := false
	for _, r := range recs {
		l := o.AS.FindModule(r.IP)
		if l == nil {
			continue
		}
		if l == o.AS.Exec {
			inExec = true
		}
		mods[l] = true
	}
	return inExec && len(mods) > 1
}

// trim cuts the window to the policy packet count, extending backwards
// while the stride rule is unmet (recomputed from scratch per step —
// quadratic and proud of it).
func (o *Oracle) trim(recs []tipRec) []tipRec {
	if len(recs) <= o.Policy.PktCount {
		return recs
	}
	start := len(recs) - o.Policy.PktCount
	for start > 0 && !o.spansModules(recs[start:]) {
		start--
	}
	return recs[start:]
}

// Check runs one reference check over the source's current contents.
func (o *Oracle) Check() Result {
	if o.Ref != nil && o.apprGen != o.Ref.gen {
		// The label snapshot changed: approvals earned against the old
		// labels must be re-earned.
		o.apprEdges = make(map[edgeApproval]bool)
		o.apprPaths = make(map[[3]uint64]bool)
		o.apprGen = o.Ref.gen
	}
	o.Stats.Checks++
	recs, region, health, err := o.window()
	res := Result{TIPs: len(recs), Health: health}
	if err != nil || health != HealthClean {
		o.resolveDegraded(&res, recs, region, err)
	} else if len(recs) >= 2 {
		o.runChecks(&res, recs, region)
	}
	o.finish(&res)
	return res
}

// runChecks is the fast-path analogue: classify every consecutive TIP
// pair against the reference ITC-CFG and escalate to the slow path when
// the high-credit ratio falls below the policy threshold.
func (o *Oracle) runChecks(res *Result, recs []tipRec, region []byte) {
	minCount := o.Policy.CredMinCount
	if minCount == 0 {
		minCount = 1
	}
	suspicious, checked := 0, 0
	for i := 0; i+1 < len(recs); i++ {
		if recs[i].Async || recs[i+1].Resync || recs[i+1].Async {
			// Not control-flow-adjacent: seam, async transfer, or a pair
			// anchored at an async target (a mid-block resume point is not
			// an indirect-branch target; the flow walk verifies that span).
			continue
		}
		checked++
		src, dst, sig := recs[i].IP, recs[i+1].IP, recs[i+1].Sig
		exists, count, sigOK := o.Ref.lookup(src, dst, sig)
		if !exists {
			res.Verdict = VerdictViolation
			res.Reason = fmt.Sprintf("ITC-CFG edge mismatch: %#x -> %#x", src, dst)
			return
		}
		if count > 0 && sigOK && count >= minCount {
			o.Stats.HighEdges++
			continue
		}
		if o.apprEdges[edgeApproval{src, dst, sig}] {
			o.Stats.HighEdges++
			continue
		}
		o.Stats.LowEdges++
		suspicious++
	}
	if o.Policy.PathSensitive {
		for i := 0; i+2 < len(recs); i++ {
			if recs[i].Async || recs[i+1].Resync || recs[i+2].Resync ||
				recs[i+1].Async || recs[i+2].Async {
				continue
			}
			a, b, c := recs[i].IP, recs[i+1].IP, recs[i+2].IP
			if o.Ref.pathTrained(a, b, c) || o.apprPaths[[3]uint64{a, b, c}] {
				continue
			}
			o.Stats.LowEdges++
			suspicious++
		}
	}
	res.LowCredit = suspicious
	if float64(checked-suspicious) < o.Policy.CredRatio*float64(checked) {
		o.slowPath(res, recs, region)
	}
}

// resolveDegraded applies the policy to a check whose trace evidence is
// incomplete or damaged.
func (o *Oracle) resolveDegraded(res *Result, recs []tipRec, region []byte, decodeErr error) {
	res.Degraded = true
	o.Stats.DegradedChecks++
	detail := res.Health.String()
	if decodeErr != nil {
		detail = decodeErr.Error()
	}
	switch o.Policy.OnDegraded {
	case FailOpen:
		if len(recs) >= 2 {
			o.runChecks(res, recs, region)
			if res.Verdict == VerdictViolation {
				return
			}
		}
		o.Stats.FailOpens++
		res.Verdict = VerdictClean
		res.Reason = "degraded trace (" + detail + "): fail open"
	case SlowPathRetry:
		if res.Health == HealthResynced && o.curSynced && o.tailCovered(recs) {
			o.slowPath(res, recs, region)
			return
		}
		o.retrySlowPath(res, detail)
	default:
		o.Stats.FailClosures++
		res.Verdict = VerdictViolation
		res.Reason = "degraded trace (" + detail + "): fail closed"
	}
}

// tailCovered reports whether the window's records cover the stream tail
// after the last overflow (a resynced-but-covered window may be checked
// in place).
func (o *Oracle) tailCovered(recs []tipRec) bool {
	if o.wrapLoss && len(recs) < o.Policy.PktCount {
		return false
	}
	if o.curLastOVF < 0 {
		return len(recs) >= 2
	}
	return len(recsFrom(recs, o.curLastOVF)) >= 2
}

// retrySlowPath re-decodes from successively later sync points of a
// fresh snapshot, forcing the full check over the first recovery whose
// tail is covered; exhausted budgets fail closed.
func (o *Oracle) retrySlowPath(res *Result, detail string) {
	wrapLoss := o.wrapLoss
	o.invalid = true // recovery abandons the retained stream
	buf := o.Src.Snapshot()
	pts := findAllPSBs(buf)
	attempts := min(len(pts), DefaultRetryMax)
	if attempts == 0 {
		attempts = 1
	}
	for attempt := 0; attempt < attempts; attempt++ {
		o.Stats.Retries++
		res.Retries++
		if attempt >= len(pts) {
			break
		}
		start := pts[attempt]
		pkts, _, perr := parse(nil, buf[start:], start, false)
		if perr != nil {
			continue
		}
		recs := extractRecords(pkts)
		if !recoveredTailOK(pkts, recs) {
			continue
		}
		if wrapLoss && len(recs) < o.Policy.PktCount {
			continue
		}
		res.TIPs = len(recs)
		o.slowPath(res, recs, buf[start:])
		return
	}
	o.Stats.FailClosures++
	res.Verdict = VerdictViolation
	res.Reason = "degraded trace (" + detail + "): recovery retries exhausted, fail closed"
}

// recoveredTailOK mirrors tailCovered for a recovery decode.
func recoveredTailOK(pkts []Packet, recs []tipRec) bool {
	lastOVF := lastOVFOff(pkts)
	if lastOVF < 0 {
		return len(recs) >= 2
	}
	return len(recsFrom(recs, lastOVF)) >= 2
}

// finish folds a result into the statistics.
func (o *Oracle) finish(res *Result) {
	o.Stats.TIPsChecked += uint64(res.TIPs)
	if res.UsedSlowPath {
		o.Stats.SlowChecks++
	}
	if res.Verdict == VerdictViolation {
		o.Stats.Violations++
	}
}

package guard

// Degraded-mode checking (§7.1.2). The paper concedes that the ToPA
// buffer wrapping past unchecked trace, buffer-full PMIs and overflow
// gaps are the worst case for a trace-backed checker; real IPT
// additionally emits OVF packets whose aftermath must be resynchronized
// at the next PSB. This file decides what verdict the guard returns when
// the window it is asked to vouch for is damaged, stale, or missing:
// the trace-health classification happens in window(), the policy
// response here.

import (
	"flowguard/internal/trace/ipt"
)

// DegradedMode selects the guard's fail behavior when a window cannot be
// verified (overflow, gap, corruption) or FleetPool sheds a check of an
// over-share tenant.
type DegradedMode uint8

// Degraded-mode policies. The zero value is FailClosed: an unverifiable
// window is treated exactly like a detected violation, which preserves
// the security invariant at the price of killing a benign process whose
// trace was damaged.
const (
	// FailClosed returns a violation for any unverifiable window.
	FailClosed DegradedMode = iota
	// FailOpen lets the endpoint proceed, counting the unverified pass
	// in Stats.FailOpens. Records that did survive decoding are still
	// checked best-effort: a definite ITC-CFG mismatch among them fires
	// regardless.
	FailOpen
	// SlowPathRetry re-snapshots the ToPA and retries a full-precision
	// decode from successive sync points (bounded by DefaultRetryMax,
	// with exponential backoff); if no attempt yields a verifiable
	// window covering the stream tail, the check fails closed. A check
	// FleetPool sheds has no window to retry and fails closed too.
	SlowPathRetry
)

var degradedNames = [...]string{
	FailClosed: "fail-closed", FailOpen: "fail-open", SlowPathRetry: "slow-path-retry",
}

func (m DegradedMode) String() string {
	if int(m) < len(degradedNames) {
		return degradedNames[m]
	}
	return "degraded-mode(?)"
}

// TraceHealth classifies the state of the trace window a check ran over.
type TraceHealth uint8

// Trace-health classes, in increasing order of damage.
const (
	// HealthClean: the stream decoded without loss since the last check.
	HealthClean TraceHealth = iota
	// HealthResynced: one or more OVF packets were decoded — trace bytes
	// were lost upstream — or an overflow still awaits its
	// resynchronizing PSB, leaving the stream tail unvouched-for.
	HealthResynced
	// HealthGap: the wrapped buffer holds no sync point at all, so not a
	// single resident byte can be attributed to the control flow.
	HealthGap
	// HealthMalformed: the resident bytes violate the packet grammar
	// (ipt.ErrMalformedTrace); corruption, not legitimate execution.
	HealthMalformed
)

var healthNames = [...]string{
	HealthClean: "clean", HealthResynced: "resynced", HealthGap: "gap", HealthMalformed: "malformed",
}

func (h TraceHealth) String() string {
	if int(h) < len(healthNames) {
		return healthNames[h]
	}
	return "health(?)"
}

// DefaultRetryMax bounds SlowPathRetry's recovery re-decodes per check.
// Admission is never retried: a pooled check waits for its slot.
const DefaultRetryMax = 3

// CyclesPerRetryBackoff is the modeled cost of the first retry backoff
// step; each further attempt doubles it (the §6 cost model treats the
// re-snapshot stall as interception-class overhead).
const CyclesPerRetryBackoff = 2000

// resolveDegraded turns an unhealthy window of stream s, whose region
// opens at stream offset psb, into a policy-governed verdict. Called with
// the guard's mutex held, after window() — or a slow path that found the
// region gone — classified res.Health (never HealthClean here).
//
//fg:cold runs only on unhealthy windows, never on the clean steady state
func (g *Guard) resolveDegraded(res *Result, s *stream, tips []ipt.TIPRecord, psb uint64, decodeErr error) {
	res.Degraded = true
	g.Stats.DegradedChecks++
	detail := res.Health.String()
	if decodeErr != nil {
		detail = decodeErr.Error()
	}
	switch g.Policy.OnDegraded {
	case FailOpen:
		// Best effort first: whatever survived decoding is still
		// checked, so a definite violation among the surviving records
		// fires even in fail-open mode.
		if len(tips) >= 2 {
			g.runChecks(res, s, tips, psb)
			if res.Verdict == VerdictViolation {
				return
			}
		}
		g.Stats.FailOpens++
		res.Verdict = VerdictClean
		res.Reason = "degraded trace (" + detail + "): fail open"
	case SlowPathRetry:
		if res.Health == HealthResynced && s.win.dec.Synced() && g.tailCovered(&s.win, tips) &&
			g.slowPath(res, s, tips, psb) {
			// The stream resynchronized on its own and the surviving
			// window still vouches for the flow reaching the endpoint:
			// it was verified with full precision instead of the credit
			// heuristics (a region the slow path no longer found falls
			// through to recovery).
			return
		}
		g.retrySlowPath(res, s, detail)
	default: // FailClosed
		g.Stats.FailClosures++
		res.Verdict = VerdictViolation
		res.Reason = "degraded trace (" + detail + "): fail closed"
	}
}

// retrySlowPath is SlowPathRetry's recovery loop: drop the poisoned
// window cache, re-snapshot the ToPA, and attempt a decode from each
// successive sync point — skipping past damaged spans — until one
// attempt yields a clean, tail-synced window. The verdict then comes
// from a forced slow path over that window; if every attempt fails, the
// check fails closed: no verifiable evidence reaches the endpoint, and
// the guard refuses to vouch for it.
func (g *Guard) retrySlowPath(res *Result, s *stream, detail string) {
	wrapLoss := s.win.wrapLoss
	s.win.src = nil // recovery always restarts from a fresh snapshot
	buf := s.tr.Out.Snapshot()
	pts := ipt.SyncPoints(buf)
	attempts := min(len(pts), DefaultRetryMax)
	if attempts == 0 {
		attempts = 1 // probing an empty/sync-less snapshot still costs one attempt
	}
	for attempt := 0; attempt < attempts; attempt++ {
		g.Stats.Retries++
		res.Retries++
		res.OtherCycles += CyclesPerRetryBackoff << uint(attempt)
		if attempt >= len(pts) {
			break
		}
		start := pts[attempt]
		evs, err := ipt.DecodeFast(buf[start:])
		if err != nil {
			continue
		}
		tips := ipt.ExtractTIPs(evs)
		if !recoveredTailOK(evs, tips) {
			continue // the loss seam reaches the endpoint: unvouched-for
		}
		if wrapLoss && len(tips) < g.Policy.PktCount {
			continue // post-wrap-loss window too thin to vouch for the tail
		}
		scanned := uint64(len(buf) - start)
		g.Stats.BytesScanned += scanned
		res.DecodeCycles += uint64(float64(scanned) * CyclesPerFastDecodeByte)
		res.TIPs = len(tips)
		g.slowCheck(res, nil, tips, buf[start:], 0)
		return
	}
	g.Stats.FailClosures++
	res.Verdict = VerdictViolation
	res.Reason = "degraded trace (" + detail + "): recovery retries exhausted, fail closed"
}

// tailCovered is the tail rule for the incremental window: a verdict
// vouches for the execution immediately preceding the endpoint, so at
// least one checkable record pair must postdate the last overflow. An
// endpoint reached right behind a loss seam has no verified flow behind
// it — the §7.1.2 worst case of losing exactly the attack evidence must
// fail closed, not pass. After a wrap loss (trace evicted unchecked,
// with no OVF marker to resynchronize from) the whole resident window
// postdates the loss, so the bar is the policy's full packet count: a
// thin post-loss window is exactly what a flood that erased the attack
// evidence right before the endpoint leaves behind.
func (g *Guard) tailCovered(w *winState, tips []ipt.TIPRecord) bool {
	if w.wrapLoss && len(tips) < g.Policy.PktCount {
		return false
	}
	lastOVF := w.dec.LastOVFOff()
	if lastOVF < 0 {
		return len(tips) >= 2
	}
	return len(ipt.TipsFrom(tips, lastOVF)) >= 2
}

// recoveredTailOK is the same tail rule over a freshly re-decoded
// snapshot suffix: an OVF with no later PSB leaves zero post-loss
// records, and an OVF resynchronized immediately before the endpoint
// leaves too few.
func recoveredTailOK(evs []ipt.Event, tips []ipt.TIPRecord) bool {
	lastOVF := -1
	for _, e := range evs {
		if e.Kind == ipt.KindOVF {
			lastOVF = e.Off
		}
	}
	if lastOVF < 0 {
		return len(tips) >= 2
	}
	return len(ipt.TipsFrom(tips, lastOVF)) >= 2
}

// noteFairnessShed accounts for a check FleetPool shed because its
// tenant was over its fair share: the result was synthesized under
// Policy.OnDegraded, and the guard's statistics must reflect it — its
// interception cycles included — so nothing is dropped silently.
func (g *Guard) noteFairnessShed(res *Result) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.Stats.Checks++
	g.Stats.DegradedChecks++
	g.Stats.Shed++
	if res.Verdict == VerdictViolation {
		g.Stats.FailClosures++
	} else {
		g.Stats.FailOpens++
	}
	g.finish(res)
}

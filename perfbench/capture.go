package main

import (
	"bytes"
	"fmt"
	"time"

	"flowguard/internal/cpu"
	"flowguard/internal/guard"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/trace/ipt"
)

// maxInstrs bounds every emulated run, as the harness does.
const maxInstrs = 500_000_000

// Path classes of one intercepted endpoint, from the guard counters the
// call moved.
const (
	classFast     = "fast"
	classSlow     = "slow"
	classDegraded = "degraded"
)

// session is the per-call capture state of one kernel: every process's
// syscall handler is wrapped by a tap that reads Kernel.GateWait around
// the call, so each intercepted endpoint yields one blocked-time sample
// while the module's own interceptors stay installed. Schedulers run
// processes serially, so consecutive GateWait reads bracket exactly one
// gate entry.
type session struct {
	b   *bench
	k   *kernelsim.Kernel
	run int // span id of the scheduler's run call (endpoint span parent)
	// exploit marks a session whose input is an attack: its endpoints are
	// detection latency, kept out of the benign blocked-time metrics.
	exploit bool
	calls   uint64
	gate    time.Duration
	taps    map[*cpu.CPU]bool

	// Traced runs only: the trace each guard checked, captured at every
	// endpoint for the post-session layer replays.
	caps  []*capture
	capOf map[*ipt.ToPA]*capture
	fulls []fullWindow
	last  fullWindow
	cores *coreRecorder
}

func (b *bench) newSession(k *kernelsim.Kernel, run int, exploit bool) *session {
	return &session{b: b, k: k, run: run, exploit: exploit, taps: map[*cpu.CPU]bool{}, capOf: map[*ipt.ToPA]*capture{}}
}

// tap wraps one thread's syscall handler.
type tap struct {
	s      *session
	inner  cpu.SyscallHandler
	g      *guard.Guard
	p      *kernelsim.Process
	lookup lookupFn
	// sink returns the stream the guard checks for the calling thread.
	sink func() *ipt.ToPA
}

type lookupFn func(src, dst, sig uint64) itc.EdgeLabel

// wrap installs a tap on c unless it already has one.
func (s *session) wrap(c *cpu.CPU, t tap) {
	if s.taps[c] {
		return
	}
	s.taps[c] = true
	t.s, t.inner = s, c.Sys
	c.Sys = &t
}

func (t *tap) Syscall(c *cpu.CPU) error {
	s := t.s
	ns0, n0 := s.k.GateWait()
	slow0, deg0 := t.g.Stats.SlowChecks, t.g.Stats.DegradedChecks
	var start time.Time
	if s.b.sp.on {
		start = time.Now()
	}
	err := t.inner.Syscall(c)
	ns1, n1 := s.k.GateWait()
	if n1 == n0 {
		return err
	}
	d := ns1 - ns0
	s.calls += n1 - n0
	s.gate += d
	cls := classFast
	switch {
	case t.g.Stats.DegradedChecks != deg0:
		cls = classDegraded
	case t.g.Stats.SlowChecks != slow0:
		cls = classSlow
	}
	ph := s.b.ph
	k := ph.fastScale
	if cls == classSlow {
		k = ph.runScale
	}
	ref := atRef(d, k)
	ph.gate += ref
	switch {
	case s.exploit:
		ph.detect.add(uint64(ref))
	case cls == classFast:
		ph.fast.add(uint64(ref))
	case cls == classSlow:
		ph.slow.add(uint64(ref))
	}
	if !s.exploit {
		ph.blocked.add(uint64(ref))
	}
	if s.b.sp.on {
		s.b.sp.add("guard.endpoint."+cls, s.run, start, start.Add(d))
		s.capture(t, cls)
	}
	return err
}

// reconcile asserts that the session's samples account for every gate
// entry the kernel metered, to the nanosecond, and counts the entries in
// the phase (the tap added their times at the reference speed).
func (s *session) reconcile() error {
	ns, n := s.k.GateWait()
	if n != s.calls || ns != s.gate {
		return fmt.Errorf("blocked samples do not reconcile with Kernel.GateWait: %d samples / %v, gate %d calls / %v",
			s.calls, s.gate, n, ns)
	}
	s.b.ph.gateCalls += s.calls
	return nil
}

// capture is one checked stream's bytes as the guard saw them, in the
// chunks appended between consecutive endpoints. A chunk that starts a
// new segment follows a wrap that outran the capture.
type capture struct {
	pos    uint64
	chunks [][]byte
	breaks map[int]bool
	lookup lookupFn
}

// fullWindow is a checked window kept for the DecodeFull replay.
type fullWindow struct {
	as   *module.AddressSpace
	topa *ipt.ToPA
	buf  []byte
}

// maxFullPerSession bounds the DecodeFull replays per session.
const maxFullPerSession = 4

func (s *session) capture(t *tap, cls string) {
	topa := t.sink()
	c := s.capOf[topa]
	if c == nil {
		c = &capture{lookup: t.lookup, breaks: map[int]bool{}}
		s.capOf[topa] = c
		s.caps = append(s.caps, c)
	}
	total := topa.TotalWritten()
	if total != c.pos {
		b, ok := topa.AppendSince(nil, c.pos)
		if !ok {
			b = topa.Snapshot()
			c.breaks[len(c.chunks)] = true
		}
		c.chunks = append(c.chunks, b)
		c.pos = total
	}
	if cls == classSlow && len(s.fulls) < maxFullPerSession {
		s.fulls = append(s.fulls, fullWindow{as: t.p.AS, buf: topa.Snapshot()})
	}
	s.last = fullWindow{as: t.p.AS, topa: topa}
}

// coreRecorder records the shared per-core trace streams of a multicore
// run (traced runs only) for the Demux replay. It is installed as the
// cores' write filter and passes every byte through unchanged; the
// session's core-switch hook tells it which core is writing.
type coreRecorder struct {
	cur    int
	off    bool
	chunks []coreChunk
}

type coreChunk struct {
	core int
	b    []byte
}

func (r *coreRecorder) Corrupt(p []byte, _ uint64) []byte {
	if r.off {
		return p
	}
	if n := len(r.chunks); n > 0 && r.chunks[n-1].core == r.cur {
		r.chunks[n-1].b = append(r.chunks[n-1].b, p...)
	} else {
		r.chunks = append(r.chunks, coreChunk{core: r.cur, b: append([]byte(nil), p...)})
	}
	return p
}

// reference runs the process unprotected and untraced and returns its
// stdout: the output every protected run of the same input must produce.
func reference(spawn func(k *kernelsim.Kernel) (*kernelsim.Process, error)) ([]byte, error) {
	k := kernelsim.New()
	p, err := spawn(k)
	if err != nil {
		return nil, err
	}
	st, err := k.Run(p, maxInstrs)
	if err != nil {
		return nil, err
	}
	if !st.Exited || st.Code != 0 {
		return nil, fmt.Errorf("unprotected reference run of %s: %v", p.Name, st)
	}
	return p.Stdout, nil
}

// benignOutcome explains why a benign protected process failed, or
// returns "" when it exited 0 with its reference output.
func benignOutcome(p *kernelsim.Process, st kernelsim.ExitStatus, ref []byte, reports []guard.ViolationReport) string {
	switch {
	case st.Killed:
		why := st.String()
		for _, r := range reports {
			if r.PID == p.PID {
				why = r.String()
				break
			}
		}
		return fmt.Sprintf("benign %s killed: %s", p.Name, why)
	case !st.Exited:
		return fmt.Sprintf("benign %s did not exit: %v", p.Name, st)
	case st.Code != 0:
		return fmt.Sprintf("benign %s exited %d", p.Name, st.Code)
	case !bytes.Equal(p.Stdout, ref):
		return fmt.Sprintf("benign %s: stdout differs from the unprotected reference (%d vs %d bytes)",
			p.Name, len(p.Stdout), len(ref))
	}
	return ""
}

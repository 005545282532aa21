package guard

// Differential test of resumed slow-path walks: a guard whose slow checks
// resume the suspended walk of the stream's last clean slow check, and a
// twin whose slow path walks every region from its start, must agree on
// every check — the Result, the Stats and the approval cache — over
// recorded untrained sessions cut at their endpoints, at random packet
// boundaries and inside packet pairs, and across every event that drops
// a suspended walk.

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/cfg"
	"flowguard/internal/itc"
	"flowguard/internal/kernelsim"
	"flowguard/internal/module"
	"flowguard/internal/progen"
	"flowguard/internal/trace/ipt"
)

// resumeSession is a recorded session the resumption tests replay: the
// address space it ran in, its O-CFG, its trace, and the stream offsets
// the trace had reached at each endpoint call.
type resumeSession struct {
	name string
	as   *module.AddressSpace
	ocfg *cfg.Graph
	raw  []byte
	ends []int
}

// recordResumeSession runs p to its exit under a tracer, as the kernel
// module traces it (kernel-performed transfers become async FUP+TIP
// pairs), and records where the trace stood at every endpoint call.
func recordResumeSession(tb testing.TB, name string, k *kernelsim.Kernel, p *kernelsim.Process) resumeSession {
	tb.Helper()
	ocfg, err := cfg.Build(p.AS)
	if err != nil {
		tb.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ipt.CtlTraceEn|ipt.CtlBranchEn|ipt.CtlUser|ipt.CtlToPA); err != nil {
		tb.Fatal(err)
	}
	p.CPU.Branch = tr
	k.OnAsyncFlow = func(_ *kernelsim.Process, from, to uint64) { tr.AsyncEvent(from, to) }
	var ends []int
	for _, sysno := range DefaultEndpoints() {
		k.Intercept(sysno, func(*kernelsim.Process, uint64) error {
			tr.Flush()
			ends = append(ends, int(tr.Out.TotalWritten()))
			return nil
		})
	}
	if st, err := k.Run(p, 80_000_000); err != nil || !st.Exited {
		tb.Fatalf("recording %s: %v %v", name, st, err)
	}
	tr.Flush()
	return resumeSession{name: name, as: p.AS, ocfg: ocfg, raw: tr.Out.Snapshot(), ends: ends}
}

// recordAppSession records one session of app on input.
func recordAppSession(tb testing.TB, app *apps.App, input []byte) resumeSession {
	tb.Helper()
	k := kernelsim.New()
	p, err := app.Spawn(k, input)
	if err != nil {
		tb.Fatal(err)
	}
	return recordResumeSession(tb, app.Name, k, p)
}

// recordSyntheticSession records a random program (internal/progen).
func recordSyntheticSession(tb testing.TB, seed int64) resumeSession {
	tb.Helper()
	cfg := progen.DefaultConfig(seed)
	cfg.MaxLoop, cfg.CallFanout = 10, 4
	prog, err := progen.Generate(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	k := kernelsim.New()
	p, err := k.Spawn("randprog", prog.Exec, prog.Libs, nil, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return recordResumeSession(tb, fmt.Sprintf("progen-%d", seed), k, p)
}

// resumePair is a guard that resumes suspended slow-path walks and its
// twin, whose slow path walks every region from its start. Each has its
// own ToPA of the kernel module's 2×8 KiB geometry and its own approval
// cache, over the session's untrained static labels.
type resumePair struct {
	g, twin *Guard
}

func newResumePair(ss resumeSession, pol Policy) *resumePair {
	ig := itc.FromCFG(ss.ocfg)
	mk := func() *Guard {
		return New(ss.as, ss.ocfg, ig, ipt.NewTracer(ipt.NewToPA(DefaultToPARegion, DefaultToPARegion)), pol)
	}
	return &resumePair{g: mk(), twin: mk()}
}

// write appends b to both guards' process streams.
func (p *resumePair) write(b []byte) {
	p.g.Tracer.Out.Write(b)
	p.twin.Tracer.Out.Write(b)
}

// resumes returns how many slow checks of s resumed a walk.
func resumes(s *stream) uint64 {
	if s.slow == nil {
		return 0
	}
	return s.slow.resumed
}

// check runs one check of the guard's stream s and of the twin's stream
// ts, and fails unless the two agree on the Result, the Stats and the
// approvals. It reports whether the guard's check resumed a walk.
func (p *resumePair) check(tb testing.TB, at string, s, ts *stream) (Result, bool) {
	tb.Helper()
	before := resumes(s)
	p.twin.mu.Lock()
	ts.dropSlowWalk()
	p.twin.mu.Unlock()
	got, want := p.g.check(s), p.twin.check(ts)
	if got != want {
		tb.Fatalf("%s: resuming guard %+v\ntwin walking from scratch %+v", at, got, want)
	}
	if p.g.Stats != p.twin.Stats {
		tb.Fatalf("%s: resuming guard's stats %+v\ntwin's %+v", at, p.g.Stats, p.twin.Stats)
	}
	gotEdges, gotPaths := approvals(p.g.appr)
	wantEdges, wantPaths := approvals(p.twin.appr)
	if !maps.Equal(gotEdges, wantEdges) || !maps.Equal(gotPaths, wantPaths) {
		tb.Fatalf("%s: resuming guard approved %d edges and %d paths, twin %d and %d",
			at, len(gotEdges), len(gotPaths), len(wantEdges), len(wantPaths))
	}
	return got, resumes(s) > before
}

// resumeCuts returns the offsets a replay of ss checks at, ascending:
// every endpoint call, a sample of packet boundaries and of arbitrary
// bytes (a packet cut mid-payload), and the boundaries inside packet
// pairs: between a SYSCALL's FUP and TIP.PGD and between its TIP.PGD and
// TIP.PGE, and between an asynchronous FUP and its TIP.
func resumeCuts(rng *rand.Rand, ss resumeSession) []int {
	cuts := slices.Clone(ss.ends)
	evs, err := ipt.DecodeFast(ss.raw)
	if err != nil {
		panic(err)
	}
	for i := 0; i+1 < len(evs); i++ {
		e, next := evs[i], evs[i+1]
		switch {
		case e.Kind == ipt.KindFUP && !e.Ctx && (next.Kind == ipt.KindTIPPGD || next.Kind == ipt.KindTIP),
			e.Kind == ipt.KindTIPPGD && next.Kind == ipt.KindTIPPGE:
			if rng.Intn(4) == 0 {
				cuts = append(cuts, next.Off)
			}
		case rng.Intn(40) == 0:
			cuts = append(cuts, e.Off)
		case rng.Intn(200) == 0:
			cuts = append(cuts, e.Off+1)
		}
	}
	slices.Sort(cuts)
	return slices.Compact(cuts)
}

// innerCutKinds counts, among cuts, those between a SYSCALL's FUP and
// TIP.PGD and those between an asynchronous FUP and its TIP.
func innerCutKinds(raw []byte, cuts []int) (syscall, async int) {
	evs, _ := ipt.DecodeFast(raw)
	for i := 0; i+1 < len(evs); i++ {
		e, next := evs[i], evs[i+1]
		if e.Kind != ipt.KindFUP || e.Ctx {
			continue
		}
		if _, ok := slices.BinarySearch(cuts, next.Off); !ok {
			continue
		}
		switch next.Kind {
		case ipt.KindTIPPGD:
			syscall++
		case ipt.KindTIP:
			async++
		}
	}
	return syscall, async
}

// resumeSessions records the sessions the tests replay: untrained nginx,
// vsftpd and openssh, signald (whose trace carries async FUP+TIP pairs)
// and a random program.
func resumeSessions(tb testing.TB) []resumeSession {
	nginx, vsftpd, openssh := apps.Nginx(), apps.Vsftpd(), apps.OpenSSH()
	return []resumeSession{
		recordAppSession(tb, nginx, nginx.MakeInput(60, 1)),
		recordAppSession(tb, vsftpd, vsftpd.MakeInput(40, 2)),
		recordAppSession(tb, openssh, openssh.MakeInput(30, 3)),
		recordAppSession(tb, apps.Signald(), []byte("aSbSSab S aSSSbaSab aSbS SSa bSaS")),
		recordSyntheticSession(tb, 7),
		recordSyntheticSession(tb, 8),
	}
}

// ovf is an OVF packet.
var ovf = []byte{0x02, 0xF3}

// TestSlowResumeMatchesScratch replays recorded untrained sessions into
// a resuming guard and its from-scratch twin, checking at every endpoint
// offset, at sampled packet boundaries and mid-packet bytes, between
// SYSCALLs' FUPs and TIP.PGDs and between async FUPs and their TIPs, and
// right after an OVF spliced in halfway, under the default policy, under
// slow-path-retry degraded checks and under the full-decode ablation
// (CredRatio above 1), whose every check with a checked pair takes the
// slow path. Every check must agree
// (resumePair.check), and every session must resume walks.
func TestSlowResumeMatchesScratch(t *testing.T) {
	retry, naive := DefaultPolicy(), DefaultPolicy()
	retry.OnDegraded = SlowPathRetry
	naive.CredRatio = 2
	pols := []struct {
		name string
		pol  Policy
	}{{"default", DefaultPolicy()}, {"slow-path-retry", retry}, {"naive-full-decode", naive}}
	sawSyscallCut, sawAsyncCut := false, false
	for i, ss := range resumeSessions(t) {
		for _, pc := range pols {
			pol := pc.pol
			t.Run(ss.name+"/"+pc.name, func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(i) + 1))
				cuts := resumeCuts(rng, ss)
				sc, ac := innerCutKinds(ss.raw, cuts)
				sawSyscallCut, sawAsyncCut = sawSyscallCut || sc > 0, sawAsyncCut || ac > 0
				p := newResumePair(ss, pol)
				ovfAt := cuts[len(cuts)/2]
				prev, slow, resumed := 0, 0, 0
				for _, c := range cuts {
					p.write(ss.raw[prev:c])
					if prev < ovfAt && c >= ovfAt {
						p.write(ovf)
					}
					prev = c
					res, r := p.check(t, fmt.Sprintf("check at %d", c), &p.g.main, &p.twin.main)
					if res.UsedSlowPath {
						slow++
					}
					if r {
						resumed++
					}
				}
				t.Logf("%d checks at %d endpoints, %d slow, %d resumed", len(cuts), len(ss.ends), slow, resumed)
				if len(ss.ends) > 0 && resumed == 0 {
					t.Fatalf("no slow check resumed a walk")
				}
			})
		}
	}
	if !sawSyscallCut || !sawAsyncCut {
		t.Fatalf("no check cut between a SYSCALL's FUP and TIP.PGD (%v) or between an async FUP and its TIP (%v)", sawSyscallCut, sawAsyncCut)
	}
}

// TestSlowResumeDropRules replays an untrained openssh session cut at its
// endpoints and, before checks that follow one which left a suspended
// walk, applies an event that must drop it: InvalidateWindow, a write
// that wraps the buffer past the walk's PSB, an OVF that makes the next
// window degraded, an Mprotect in the address space, or a new O-CFG. The
// check after the event must agree with the twin and must not resume,
// and a degraded check must leave no walk. The checks run the
// full-decode ablation (CredRatio above 1), whose every check with a
// checked pair takes the slow path. A last
// case interleaves the slow checks of two streams of one guard, as
// multicore threads do: each resumes only its own walk.
func TestSlowResumeDropRules(t *testing.T) {
	openssh := apps.OpenSSH()
	ss := recordAppSession(t, openssh, openssh.MakeInput(30, 5))
	code := ss.as.Exec.CodeBase
	perm := ss.as.FindSegment(code).Perm
	rules := []struct {
		name string
		// apply runs the event before the check at ss.ends[i] and returns
		// the index of the endpoint offset to write up to.
		apply func(p *resumePair, i int) int
	}{
		{"invalidate", func(p *resumePair, i int) int {
			p.g.InvalidateWindow()
			p.twin.InvalidateWindow()
			return i
		}},
		{"wrap", func(p *resumePair, i int) int {
			j := i
			for j+1 < len(ss.ends) && ss.ends[j]-ss.ends[i-1] <= 2*DefaultToPARegion {
				j++
			}
			return j
		}},
		{"degraded", func(p *resumePair, i int) int {
			p.write(ovf)
			return i
		}},
		{"mprotect", func(p *resumePair, i int) int {
			if err := ss.as.Mprotect(code, perm); err != nil {
				t.Fatal(err)
			}
			return i
		}},
		// A new O-CFG, which needs a new chain memo: the walk decides
		// direct edges through the memo it was built with.
		{"ocfg", func(p *resumePair, i int) int {
			for _, g := range []*Guard{p.g, p.twin} {
				ocfg, err := cfg.Build(ss.as)
				if err != nil {
					t.Fatal(err)
				}
				g.OCFG = ocfg
			}
			return i
		}},
	}
	// Every check of the full-decode ablation (CredRatio above 1) with a
	// checked pair takes the slow path, so most events fall between two
	// slow checks that open at one PSB.
	naive := DefaultPolicy()
	naive.CredRatio = 2
	for _, rule := range rules {
		t.Run(rule.name, func(t *testing.T) {
			p := newResumePair(ss, naive)
			prev, applied, resumed := 0, 0, 0
			for i := 0; i < len(ss.ends); i++ {
				armed := i > 0 && p.g.main.slow != nil && p.g.main.slow.ok && i%3 == 0
				if armed {
					i = rule.apply(p, i)
					applied++
				}
				p.write(ss.raw[prev:ss.ends[i]])
				prev = ss.ends[i]
				res, r := p.check(t, fmt.Sprintf("check %d", i), &p.g.main, &p.twin.main)
				if r && armed {
					t.Fatalf("check %d resumed a walk after %s", i, rule.name)
				}
				if res.Degraded && p.g.main.slow.ok {
					t.Fatalf("degraded check %d kept a walk to resume", i)
				}
				if r {
					resumed++
				}
			}
			if applied == 0 || resumed == 0 {
				t.Fatalf("the event was applied %d times over a walk; %d checks resumed one", applied, resumed)
			}
		})
	}
	t.Run("streams", func(t *testing.T) {
		// Both streams take the slow path at every check, although they
		// share approvals.
		other := recordAppSession(t, openssh, openssh.MakeInput(30, 6))
		p := newResumePair(ss, naive)
		newThread := func() *stream {
			s := newStream(ipt.NewTracer(ipt.NewToPA(DefaultToPARegion, DefaultToPARegion)))
			return &s
		}
		s, ts := newThread(), newThread()
		prev, otherPrev := 0, 0
		for i := 0; i < max(len(ss.ends), len(other.ends)); i++ {
			if i < len(ss.ends) {
				p.write(ss.raw[prev:ss.ends[i]])
				prev = ss.ends[i]
				p.check(t, fmt.Sprintf("main check %d", i), &p.g.main, &p.twin.main)
			}
			if i < len(other.ends) {
				b := other.raw[otherPrev:other.ends[i]]
				s.tr.Out.Write(b)
				ts.tr.Out.Write(b)
				otherPrev = other.ends[i]
				p.check(t, fmt.Sprintf("thread check %d", i), s, ts)
			}
		}
		if resumes(&p.g.main) == 0 || resumes(s) == 0 {
			t.Fatalf("the streams resumed %d and %d walks", resumes(&p.g.main), resumes(s))
		}
	})
}

// FuzzSlowResumeMatchesScratch replays a recorded untrained openssh or
// signald session in chunks the fuzzer picks, with events between
// checks: the resuming guard and its twin must agree at every check.
// Each plan triple (op, size low, size high) writes a chunk of 1 to 8192
// bytes, after an InvalidateWindow (op 5), an Mprotect (op 6) or an OVF
// (op 7), and checks.
func FuzzSlowResumeMatchesScratch(f *testing.F) {
	openssh := apps.OpenSSH()
	sessions := []resumeSession{
		recordAppSession(f, openssh, openssh.MakeInput(8, 9)),
		recordAppSession(f, apps.Signald(), []byte("aSbSSab S aSSSbaSab")),
	}
	for i, ss := range sessions {
		// The endpoint cuts, and the same cuts shifted into packets.
		for _, shift := range []int{0, 3} {
			var plan []byte
			prev := 0
			for k, e := range ss.ends {
				n := min(max(e-prev+shift, 1), 8192)
				plan = append(plan, byte(k%8), byte(n-1), byte((n-1)>>8))
				prev += n
			}
			f.Add(uint8(i), plan)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, plan []byte) {
		ss := sessions[int(which)%len(sessions)]
		p := newResumePair(ss, DefaultPolicy())
		code := ss.as.Exec.CodeBase
		perm := ss.as.FindSegment(code).Perm
		prev := 0
		for k := 0; k+2 < len(plan) && prev < len(ss.raw); k += 3 {
			switch plan[k] % 8 {
			case 5:
				p.g.InvalidateWindow()
				p.twin.InvalidateWindow()
			case 6:
				if err := ss.as.Mprotect(code, perm); err != nil {
					t.Fatal(err)
				}
			case 7:
				p.write(ovf)
			}
			n := 1 + (int(plan[k+1])|int(plan[k+2])<<8)%8192
			end := min(prev+n, len(ss.raw))
			p.write(ss.raw[prev:end])
			prev = end
			p.check(t, fmt.Sprintf("check at %d", end), &p.g.main, &p.twin.main)
		}
	})
}

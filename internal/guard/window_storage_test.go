package guard_test

import (
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// TestServerSessionsGrowNoRecordStorage: the window cache's record
// storage is reserved when the stream is built and trimmed to what a
// later window can reach, so module-protected server sessions — vsftpd
// and openssh, whose fresh guards used to grow the record slice inside
// the gate several times a session, and nginx — end with exactly the
// capacity their streams were built with.
func TestServerSessionsGrowNoRecordStorage(t *testing.T) {
	for _, app := range []*apps.App{apps.Vsftpd(), apps.OpenSSH(), apps.Nginx()} {
		t.Run(app.Name, func(t *testing.T) {
			a := analyze(t, app)
			inputs := make([][]byte, 4)
			for i := range inputs {
				inputs[i] = app.MakeInput(30, int64(1000+i))
			}
			a.train(t, inputs...)
			for i, in := range inputs {
				st, km, g, _ := a.protectAndRun(t, in, guard.DefaultPolicy())
				if !st.Exited || len(km.Reports) != 0 {
					t.Fatalf("session %d: %v; reports: %v", i, st, km.Reports)
				}
				capacity, reserved := guard.RecordStorage(g)
				if g.Stats.Checks == 0 || reserved == 0 {
					t.Fatalf("session %d: %d checks over %d reserved records", i, g.Stats.Checks, reserved)
				}
				if capacity != reserved {
					t.Fatalf("session %d: record storage after %d checks holds %d records, %d were reserved", i, g.Stats.Checks, capacity, reserved)
				}
			}
		})
	}
}

// BenchmarkGuardSessionChecks measures the checks of a fresh guard, the
// path every new session of a server takes: each op builds a guard over
// the kernel module's 2×8 KiB ToPA, replays one recorded openssh session
// into it and checks at every endpoint the session reached, cut where
// the kernel module's checks cut it. `-benchmem` shows what building the
// stream and its first checks allocate; checks/op is the session's
// endpoint count.
func BenchmarkGuardSessionChecks(b *testing.B) {
	app := apps.OpenSSH()
	in := app.MakeInput(30, 1000)
	a := analyze(b, app)
	a.train(b, in)
	raw, cuts := recordEndpointCuts(b, app, in, guard.DefaultPolicy().Endpoints)
	as, err := app.Load()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
		g := guard.New(as, a.ocfg, a.ig, tr, guard.DefaultPolicy())
		prev := 0
		for _, cut := range cuts {
			tr.Out.Write(raw[prev:cut])
			prev = cut
			if res := g.Check(); res.Verdict != guard.VerdictClean {
				b.Fatalf("benign session: %s", res.Reason)
			}
		}
	}
	b.ReportMetric(float64(len(cuts)), "checks/op")
}

// BenchmarkGuardColdSessionChecks is BenchmarkGuardSessionChecks on
// cold start: each op builds a fresh guard over the kernel module's 2×8
// KiB ToPA with the untrained static labels, so the guard's first checks
// of the openssh session take the slow path until their approvals fill
// the cache. slow/op is the session's slow checks; resumed/op those that
// resumed the walk of the previous clean slow check of their stream, as
// the next check opening at the same PSB does.
func BenchmarkGuardColdSessionChecks(b *testing.B) {
	app := apps.OpenSSH()
	in := app.MakeInput(30, 1000)
	a := analyze(b, app)
	raw, cuts := recordEndpointCuts(b, app, in, guard.DefaultPolicy().Endpoints)
	as, err := app.Load()
	if err != nil {
		b.Fatal(err)
	}
	var slow, resumed uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
		g := guard.New(as, a.ocfg, a.ig, tr, guard.DefaultPolicy())
		prev := 0
		for _, cut := range cuts {
			tr.Out.Write(raw[prev:cut])
			prev = cut
			if res := g.Check(); res.Verdict != guard.VerdictClean {
				b.Fatalf("benign session: %s", res.Reason)
			}
		}
		s, r := guard.SlowChecks(g)
		slow, resumed = slow+s, resumed+r
	}
	b.ReportMetric(float64(slow)/float64(b.N), "slow/op")
	b.ReportMetric(float64(resumed)/float64(b.N), "resumed/op")
}

// recordEndpointCuts runs app on input under a tracer and returns its
// trace and, for every call of one of the endpoints, the stream offset
// the trace had reached (after the flush a check makes).
func recordEndpointCuts(tb testing.TB, app *apps.App, input []byte, endpoints []uint64) ([]byte, []int) {
	tb.Helper()
	k := kernelsim.New()
	p, err := app.Spawn(k, input)
	if err != nil {
		tb.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		tb.Fatal(err)
	}
	p.CPU.Branch = tr
	var cuts []int
	for _, sysno := range endpoints {
		k.Intercept(sysno, func(*kernelsim.Process, uint64) error {
			tr.Flush()
			cuts = append(cuts, int(tr.Out.TotalWritten()))
			return nil
		})
	}
	if st, err := k.Run(p, 80_000_000); err != nil || !st.Exited {
		tb.Fatalf("recording %s: %v %v", app.Name, st, err)
	}
	tr.Flush()
	if len(cuts) == 0 {
		tb.Fatal("the session reached no endpoint")
	}
	return tr.Out.Snapshot(), cuts
}

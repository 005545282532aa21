package guard_test

// Concurrency tests (run them under -race): several protected processes
// check simultaneously — the §6 deployment, where flow checks for
// different processes run on spare cores. Each goroutine stands in for
// one process: it replays a recorded trace into its own guard's ToPA in
// chunks and checks through one shared CheckPool after every chunk,
// while the guards share one label artifact and one ApprovalCache.

import (
	"sync"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

func ropPayload(t *testing.T, a *analyzed) []byte {
	t.Helper()
	as, err := a.app.Load()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attack.BuildROPWrite(as)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// recordTrace runs the app on input with a bare tracer attached and
// returns everything the trace unit wrote, with the run's exit status.
func (a *analyzed) recordTrace(t testing.TB, input []byte) ([]byte, kernelsim.ExitStatus) {
	t.Helper()
	k := kernelsim.New()
	p, err := a.app.Spawn(k, input)
	if err != nil {
		t.Fatal(err)
	}
	tr := ipt.NewTracer(ipt.NewToPA(16 << 20))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	p.CPU.Branch = tr
	st, err := k.Run(p, 80_000_000)
	if err != nil {
		t.Fatal(err)
	}
	tr.Flush()
	return tr.Out.Snapshot(), st
}

// replayChunk is the trace volume one process writes between two
// endpoint checks in the replay.
const replayChunk = 512

// replayChecked feeds raw into g's ToPA replayChunk bytes at a time and
// checks through pool after every chunk, stopping at the first
// violation as a SIGKILL would. It returns that violation, if any.
func replayChecked(pool *guard.CheckPool, g *guard.Guard, raw []byte) (guard.Result, bool) {
	for lo := 0; lo < len(raw); lo += replayChunk {
		g.Tracer.Out.Write(raw[lo:min(lo+replayChunk, len(raw))])
		if res := pool.Do(g); res.Verdict == guard.VerdictViolation {
			return res, true
		}
	}
	return guard.Result{}, false
}

// replayGuard is a guard over the binary's shared artifact and approval
// cache with the deployed two-region ToPA. Its tracer is never
// programmed, so the ToPA holds exactly the replayed bytes.
func replayGuard(bin *guard.Binary) *guard.Guard {
	tr := ipt.NewTracer(ipt.NewToPA(guard.DefaultToPARegion, guard.DefaultToPARegion))
	return bin.NewGuard(tr, guard.DefaultPolicy())
}

// replayConcurrently replays traces[i] into guards[i], one goroutine
// per guard, all checking through pool. It returns each guard's first
// violation and whether it had one.
func replayConcurrently(pool *guard.CheckPool, guards []*guard.Guard, traces [][]byte) ([]guard.Result, []bool) {
	res := make([]guard.Result, len(guards))
	hit := make([]bool, len(guards))
	var wg sync.WaitGroup
	for i := range guards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i], hit[i] = replayChecked(pool, guards[i], traces[i])
		}(i)
	}
	wg.Wait()
	return res, hit
}

// TestParallelProtectedProcesses: benign processes checking at once
// through a two-slot pool, over one shared artifact and approval cache,
// raise no violation. Training is sparse, so the slow path runs and
// writes approvals concurrently with sibling fast-path reads.
func TestParallelProtectedProcesses(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, []byte("G /x\nP 32\nH /h\n"))
	bin := guard.NewBinary(a.ocfg.AS, a.ocfg, a.ig.Artifact())
	benign, _ := a.recordTrace(t, heavyTraffic())

	pool := guard.NewCheckPool(2)
	const procsN = 6
	guards := make([]*guard.Guard, procsN)
	traces := make([][]byte, procsN)
	for i := range guards {
		guards[i], traces[i] = replayGuard(bin), benign
	}
	res, hit := replayConcurrently(pool, guards, traces)
	for i := range guards {
		if hit[i] {
			t.Fatalf("guard %d: false positive under parallel checking: %s", i, res[i].Reason)
		}
	}

	var agg guard.Stats
	chunks := uint64((len(benign) + replayChunk - 1) / replayChunk)
	for i, g := range guards {
		if g.Stats.Checks != chunks {
			t.Fatalf("guard %d ran %d checks, want one per chunk (%d)", i, g.Stats.Checks, chunks)
		}
		agg.Merge(&g.Stats)
	}
	ps := pool.Snapshot()
	if ps.Checks != agg.Checks || ps.Shed != 0 {
		t.Fatalf("pool admitted %d checks and shed %d, guards ran %d", ps.Checks, ps.Shed, agg.Checks)
	}
	if agg.Violations != 0 || agg.DegradedChecks != 0 {
		t.Fatalf("aggregate stats report %d violations, %d degraded checks", agg.Violations, agg.DegradedChecks)
	}
	if agg.SlowChecks == 0 {
		t.Fatal("sparse training produced no slow path; the shared approval cache saw no concurrent writes")
	}
}

// TestParallelAttackIsolation: one hijacked process among concurrently
// checking benign siblings is flagged, and only it.
func TestParallelAttackIsolation(t *testing.T) {
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic(), []byte("G /x\nP 32\nH /h\n"))
	bin := guard.NewBinary(a.ocfg.AS, a.ocfg, a.ig.Artifact())
	benign, _ := a.recordTrace(t, heavyTraffic())
	// A hijacked run may crash once its payload is done; its trace
	// up to there is what the guard must flag.
	hijacked, _ := a.recordTrace(t, ropPayload(t, a))

	traces := [][]byte{benign, hijacked, benign, benign}
	guards := make([]*guard.Guard, len(traces))
	for i := range guards {
		guards[i] = replayGuard(bin)
	}
	res, hit := replayConcurrently(guard.NewCheckPool(3), guards, traces)
	if !hit[1] || res[1].Degraded {
		t.Fatalf("hijacked process not flagged by a clean check: hit=%v %+v", hit[1], res[1])
	}
	for i, g := range guards {
		want := uint64(0)
		if i == 1 {
			want = 1
		}
		if g.Stats.Violations != want || hit[i] != (i == 1) {
			t.Fatalf("guard %d: %d violations (first: %q), want %d", i, g.Stats.Violations, res[i].Reason, want)
		}
	}
}

// TestSharedApprovalsConvertSlowPathsToFast: with verdict pooling, a
// window slow-path-approved by the first process is fast-path-accepted
// by every later sibling, so total slow checks drop versus isolated
// caches.
func TestSharedApprovalsConvertSlowPathsToFast(t *testing.T) {
	// Train sparsely so benign traffic leaves untrained (low-credit)
	// edges that escalate to the slow path.
	a := analyze(t, apps.Vulnd())
	a.train(t, []byte("G /x\n"))

	run := func(share bool) (slow uint64) {
		k := kernelsim.New()
		km := guard.InstallModule(k)
		shared := guard.NewApprovalCache()
		procs := make([]*kernelsim.Process, 4)
		guards := make([]*guard.Guard, 4)
		for i := range procs {
			p, err := a.app.Spawn(k, benignTraffic())
			if err != nil {
				t.Fatal(err)
			}
			g, err := km.Protect(p, a.ocfg, a.ig, guard.DefaultPolicy())
			if err != nil {
				t.Fatal(err)
			}
			if share {
				g.ShareApprovals(shared)
			}
			procs[i], guards[i] = p, g
		}
		// Serialize execution so the sharing benefit is deterministic:
		// the first process populates the cache before the others check.
		for i, p := range procs {
			if st, err := k.Run(p, 80_000_000); err != nil || !st.Exited {
				t.Fatalf("proc %d: %v %v; reports %v", i, st, err, km.ReportsSnapshot())
			}
		}
		var agg guard.Stats
		for _, g := range guards {
			agg.Merge(&g.Stats)
		}
		if agg.SlowChecks == 0 && !share {
			t.Fatal("sparse training produced no slow paths; test is vacuous")
		}
		return agg.SlowChecks
	}

	isolated := run(false)
	pooled := run(true)
	if pooled >= isolated {
		t.Fatalf("shared approvals did not reduce slow checks: %d (shared) vs %d (isolated)", pooled, isolated)
	}
}

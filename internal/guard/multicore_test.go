package guard_test

// Multicore end-to-end tests: the preemptive world (shared per-core
// trace units, PIP/CR3 demux, per-thread check state, signal-interrupted
// windows) must reproduce solo-protection behavior exactly for a single
// process, and isolate verdicts across processes, threads and signals
// when the machine is actually shared.

import (
	"bytes"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/attack"
	"flowguard/internal/faults"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
)

// runMulticore spawns each app with its input under multicore protection
// and drives the preemptive scheduler.
func runMulticoreProcs(t *testing.T, an *analyzed, inputs [][]byte, cores int, quantum uint64, pol guard.Policy) ([]kernelsim.ExitStatus, *guard.KernelModule, []*guard.Guard, []*kernelsim.Process) {
	t.Helper()
	k := kernelsim.New()
	km := guard.InstallModule(k)
	if err := km.EnableMulticore(cores); err != nil {
		t.Fatal(err)
	}
	var procs []*kernelsim.Process
	var guards []*guard.Guard
	for _, in := range inputs {
		p, err := an.app.Spawn(k, in)
		if err != nil {
			t.Fatal(err)
		}
		g, err := km.ProtectMulticore(p, an.ocfg, an.ig, pol)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
		guards = append(guards, g)
	}
	sts, err := k.RunMulticore(procs, cores, quantum, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	km.FlushMulticore()
	km.Shutdown()
	return sts, km, guards, procs
}

func TestMulticoreBenignMatchesSoloExactly(t *testing.T) {
	an := analyze(t, apps.Vulnd())
	an.train(t, benignTraffic(), []byte("G /x\nP 32\nH /h\n"))

	stSolo, kmSolo, gSolo, _ := an.protectAndRun(t, benignTraffic(), guard.DefaultPolicy())
	if !stSolo.Exited {
		t.Fatalf("solo run: %v", stSolo)
	}
	if len(kmSolo.Reports) != 0 {
		t.Fatalf("solo false positives: %v", kmSolo.Reports)
	}

	sts, km, guards, _ := runMulticoreProcs(t, an,
		[][]byte{benignTraffic()}, 2, 300, guard.DefaultPolicy())
	if !sts[0].Exited {
		t.Fatalf("multicore run: %v; reports: %v", sts[0], km.Reports)
	}
	if len(km.Reports) != 0 {
		t.Fatalf("multicore false positives: %v", km.Reports)
	}
	g := guards[0]

	// The demuxed per-process stream must be the byte-identical stream
	// the solo CR3-filtered tracer captured, and every derived statistic
	// must agree — verdicts, edge observations, cycle accounting.
	soloBytes := gSolo.Tracer.Out.Snapshot()
	mcBytes := g.Tracer.Out.Snapshot()
	if !bytes.Equal(soloBytes, mcBytes) {
		t.Errorf("demuxed stream (%d bytes) != solo stream (%d bytes)",
			len(mcBytes), len(soloBytes))
	}
	if g.Stats != gSolo.Stats {
		t.Errorf("multicore stats diverge from solo:\n mc  = %+v\n solo = %+v",
			g.Stats, gSolo.Stats)
	}
	if dmx := km.DemuxStats(); dmx == nil || dmx.Resyncs != 0 || dmx.UnmarkedLosses != 0 {
		t.Errorf("clean run demux state: %+v", dmx)
	}
}

func TestMulticoreDetectsROPAcrossSharedCores(t *testing.T) {
	app := apps.Vulnd()
	an := analyze(t, app)
	an.train(t, benignTraffic())
	as, err := app.Load()
	if err != nil {
		t.Fatal(err)
	}
	payload, err := attack.BuildROPWrite(as)
	if err != nil {
		t.Fatal(err)
	}

	sts, km, _, procs := runMulticoreProcs(t, an,
		[][]byte{benignTraffic(), payload}, 2, 300, guard.DefaultPolicy())

	if !sts[0].Exited {
		t.Errorf("benign neighbor: %v, want clean exit", sts[0])
	}
	if !sts[1].Killed || sts[1].Signal != kernelsim.SIGKILL {
		t.Errorf("attacked process: %v, want SIGKILL", sts[1])
	}
	reports := km.ReportsSnapshot()
	if len(reports) == 0 {
		t.Fatal("ROP attack produced no violation report")
	}
	for _, r := range reports {
		if r.PID != procs[1].PID {
			t.Errorf("violation attributed to pid %d, want attacker pid %d", r.PID, procs[1].PID)
		}
	}
}

func TestMulticoreSignaldHandlerWindowsAdmitted(t *testing.T) {
	app, err := apps.ByName("signald")
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(t, app)
	an.train(t, app.MakeInput(20, 7), app.MakeInput(25, 8))

	in := app.MakeInput(30, 42)
	if !bytes.ContainsRune(in, 'S') {
		t.Fatal("workload contains no self-signal command")
	}
	sts, km, guards, procs := runMulticoreProcs(t, an,
		[][]byte{in}, 2, 120, guard.DefaultPolicy())
	if !sts[0].Exited {
		t.Fatalf("signald: %v; reports: %v", sts[0], km.Reports)
	}
	if len(km.Reports) != 0 {
		t.Fatalf("signal-interrupted windows produced false positives: %v", km.Reports)
	}
	if guards[0].Stats.Checks == 0 {
		t.Fatal("no endpoint checks ran")
	}
	// The handler's write endpoint ran inside interrupted windows.
	if len(procs[0].Stdout) == 0 {
		t.Fatal("no output produced")
	}
}

func TestMulticoreThreaddPerThreadChecks(t *testing.T) {
	app, err := apps.ByName("threadd")
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(t, app)
	an.train(t, app.MakeInput(20, 7), app.MakeInput(25, 8))

	// First byte odd: two worker threads.
	in := append([]byte{0x03}, app.MakeInput(25, 42)[1:]...)
	sts, km, guards, procs := runMulticoreProcs(t, an,
		[][]byte{in}, 3, 150, guard.DefaultPolicy())
	if !sts[0].Exited {
		t.Fatalf("threadd: %v; reports: %v", sts[0], km.Reports)
	}
	if len(km.Reports) != 0 {
		t.Fatalf("threaded run produced false positives: %v", km.Reports)
	}
	if got := len(procs[0].Threads); got != 3 {
		t.Fatalf("threads = %d, want main + 2 workers", got)
	}
	if guards[0].Stats.Checks == 0 {
		t.Fatal("no endpoint checks ran")
	}
	if dmx := km.DemuxStats(); dmx.Resyncs != 0 || dmx.UnmarkedLosses != 0 {
		t.Errorf("clean threaded run demux state: Resyncs=%d UnmarkedLosses=%d",
			dmx.Resyncs, dmx.UnmarkedLosses)
	}
	// Worker threads crossed write endpoints of their own.
	if len(procs[0].Stdout) == 0 {
		t.Fatal("no output produced")
	}
}

func TestMulticoreForkInheritsProtection(t *testing.T) {
	app, err := apps.ByName("forkd")
	if err != nil {
		t.Fatal(err)
	}
	an := analyze(t, app)
	an.train(t, app.MakeInput(12, 7), app.MakeInput(15, 8))

	sts, km, _, _ := runMulticoreProcs(t, an,
		[][]byte{app.MakeInput(15, 42)}, 2, 200, guard.DefaultPolicy())
	for i, st := range sts {
		if !st.Exited {
			t.Fatalf("proc %d: %v; reports: %v", i, st, km.Reports)
		}
	}
	if len(sts) < 2 {
		t.Fatalf("forkd spawned no children under multicore (%d statuses)", len(sts))
	}
	if len(km.Reports) != 0 {
		t.Fatalf("fork inheritance false positives: %v", km.Reports)
	}
	if got := len(km.Guards()); got < 2 {
		t.Errorf("guards = %d, want parent + child", got)
	}
}

// TestMulticoreMarkerLossSurfacesInGuards wires a slice-boundary fault
// injector (every context-switch marker dropped) into the shared
// per-core tracers and pins the loss-accounting plumbing end to end:
// the demux classifies unmarked losses and the charge reaches the
// affected guards' StreamLosses counters. It also exercises the harness
// hooks directly — CheckCurrent must dispatch a real multicore check
// and ThreadSink must expose the per-thread demux sink that received
// the process's bytes.
func TestMulticoreMarkerLossSurfacesInGuards(t *testing.T) {
	an := analyze(t, apps.Vulnd())
	an.train(t, benignTraffic(), []byte("G /x\nP 32\nH /h\n"))

	k := kernelsim.New()
	km := guard.InstallModule(k)
	if err := km.EnableMulticore(2); err != nil {
		t.Fatal(err)
	}
	pol := guard.DefaultPolicy()
	pol.OnDegraded = guard.FailOpen
	var procs []*kernelsim.Process
	var guards []*guard.Guard
	for i := 0; i < 3; i++ {
		p, err := an.app.Spawn(k, benignTraffic())
		if err != nil {
			t.Fatal(err)
		}
		g, err := km.ProtectMulticore(p, an.ocfg, an.ig, pol)
		if err != nil {
			t.Fatal(err)
		}
		procs = append(procs, p)
		guards = append(guards, g)
	}
	km.InjectCoreFaults(faults.NewSliceFaults(faults.SliceConfig{Seed: 3, DropRate: 1}))
	if _, err := k.RunMulticore(procs, 2, 200, 500_000_000); err != nil {
		t.Fatal(err)
	}
	km.FlushMulticore()

	// Under total marker loss the demux misattributes neighbor spans, so
	// the verdict may legitimately be a violation — the assertion is only
	// that the hook dispatches a real multicore check over real bytes.
	res, ok := km.CheckCurrent(procs[0])
	if !ok {
		t.Fatal("CheckCurrent found no guard for a protected process")
	}
	if res.TIPs == 0 && res.Health == guard.HealthClean {
		t.Errorf("CheckCurrent ran over an empty clean window: %+v", res)
	}
	sink := km.ThreadSink(procs[0].CurrentThread())
	if sink == nil || sink.TotalWritten() == 0 {
		t.Fatal("ThreadSink returned no per-thread stream")
	}
	km.Shutdown()

	if dmx := km.DemuxStats(); dmx.UnmarkedLosses == 0 {
		t.Errorf("all markers dropped yet UnmarkedLosses=0 (Resyncs=%d)", dmx.Resyncs)
	}
	var losses uint64
	for _, g := range guards {
		losses += g.Stats.StreamLosses
	}
	if losses == 0 {
		t.Error("unmarked losses never charged to any guard's StreamLosses")
	}
}

// TestMulticoreAsyncFeedsThreadStream pins the async pipeline's binding
// to a stream in multicore mode: the region-full captures land on the
// main thread's demux sink, and worker drains must advance that same
// stream's decoder — the one the main thread's checks read — instead of
// being dropped as stale. Verdicts and every non-async counter must
// match the synchronous multicore run.
func TestMulticoreAsyncFeedsThreadStream(t *testing.T) {
	an := analyze(t, apps.Vulnd())
	an.train(t, benignTraffic(), []byte("G /x\nP 32\nH /h\n"))
	syncPol := guard.DefaultPolicy()
	asyncPol := syncPol
	asyncPol.Async = true
	asyncPol.AsyncWorkers = 1

	sSts, sKM, sGuards, _ := runMulticoreProcs(t, an, [][]byte{heavyTraffic()}, 2, 300, syncPol)
	aSts, aKM, aGuards, _ := runMulticoreProcs(t, an, [][]byte{heavyTraffic()}, 2, 300, asyncPol)
	if sSts[0] != aSts[0] {
		t.Fatalf("exit status diverged: sync %+v, async %+v", sSts[0], aSts[0])
	}
	if !aSts[0].Exited || len(aKM.Reports) != 0 || len(sKM.Reports) != 0 {
		t.Fatalf("benign run: %+v; reports sync %v, async %v", aSts[0], sKM.Reports, aKM.Reports)
	}
	if divs := diffRunStats(&sGuards[0].Stats, &aGuards[0].Stats); len(divs) != 0 {
		t.Fatalf("stats diverged:\n  %v", divs)
	}
	st := &aGuards[0].Stats
	if st.AsyncWindows == 0 {
		t.Fatal("no region-full captures; test is vacuous")
	}
	fed, stale := guard.AsyncDrainCounts(aGuards[0])
	if st.Resyncs == 0 && stale != 0 {
		t.Errorf("%d of %d captured windows dropped as stale without a resync", stale, st.AsyncWindows)
	}
	if fed == 0 {
		t.Errorf("none of %d captured windows reached the checked stream's decoder", st.AsyncWindows)
	}
}

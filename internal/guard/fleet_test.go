package guard_test

// Per-binary sharing tests: a Binary's artifact, graphs and approval
// cache are referenced by every guard built over it — the regression
// pins here fail if per-process state ever grows a copy of the
// artifact (by allocation count and by bytes).

import (
	"runtime"
	"testing"

	"flowguard/internal/apps"
	"flowguard/internal/guard"
	"flowguard/internal/kernelsim"
	"flowguard/internal/trace/ipt"
)

// maxGuardBytes bounds the marginal heap footprint of one fleet guard
// (the Guard struct plus allocator slack — no window buffer yet, no
// artifact copy). The artifact itself is tens of kilobytes; a guard
// must stay a small fixed-size stub.
const maxGuardBytes = 2048

func fleetBinaryFixture(t *testing.T) (*analyzed, *guard.Binary) {
	t.Helper()
	a := analyze(t, apps.Vulnd())
	a.train(t, benignTraffic())
	as, err := a.app.Load()
	if err != nil {
		t.Fatal(err)
	}
	return a, guard.NewBinary(as, a.ocfg, a.ig.Artifact())
}

// TestBinaryGuardsShareState pins pointer identity: every guard of a
// Binary — including forked children — probes the same artifact and
// the same pooled approval cache, never a copy.
func TestBinaryGuardsShareState(t *testing.T) {
	_, bin := fleetBinaryFixture(t)
	if bin.Art.Size() == 0 {
		t.Fatal("trained artifact is empty")
	}
	tr := ipt.NewTracer(ipt.NewToPA(1 << 16))
	if err := tr.WriteMSR(ipt.MSRRTITCtl, ctlTrace); err != nil {
		t.Fatal(err)
	}
	guards := make([]*guard.Guard, 100)
	for i := range guards {
		guards[i] = bin.NewGuard(tr, guard.DefaultPolicy())
	}
	for i, g := range guards {
		if g.Artifact() != bin.Art {
			t.Fatalf("guard %d holds a different artifact pointer", i)
		}
		if g.Approvals() != bin.Appr {
			t.Fatalf("guard %d holds a different approval cache", i)
		}
	}
	child := guard.ForkGuard(guards[0], nil, tr)
	if child.Artifact() != bin.Art {
		t.Fatal("forked child does not share the parent's artifact")
	}
	if child.Approvals() != guards[0].Approvals() {
		t.Fatal("forked child does not share the parent's live approval cache")
	}
	if child.AS != guards[0].AS {
		t.Fatal("forked child with nil address space does not share the parent's")
	}
	if child.Stats.ForkInherits != 1 {
		t.Fatalf("forked child inherits count = %d, want 1", child.Stats.ForkInherits)
	}
	if child.Stats.Checks != 0 {
		t.Fatal("forked child did not get a fresh stats block")
	}
}

// TestGuardNoArtifactCopyPin is the fleet no-copy regression pin:
// building a guard over a Binary performs exactly one allocation (the
// Guard struct itself), and the marginal bytes per guard stay orders of
// magnitude below the artifact it references. If a change ever embeds
// artifact or table state per process, both bounds break loudly.
func TestGuardNoArtifactCopyPin(t *testing.T) {
	_, bin := fleetBinaryFixture(t)
	pol := guard.DefaultPolicy()

	if allocs := testing.AllocsPerRun(200, func() {
		_ = bin.NewGuard(nil, pol)
	}); allocs > 1 {
		t.Errorf("Binary.NewGuard allocates %.0f objects per guard, want 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		parent := bin.NewGuard(nil, pol)
		_ = guard.ForkGuard(parent, nil, nil)
	}); allocs > 2 {
		t.Errorf("NewGuard+ForkGuard allocate %.0f objects, want 2", allocs)
	}

	const n = 1000
	guards := make([]*guard.Guard, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range guards {
		guards[i] = bin.NewGuard(nil, pol)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	perGuard := int(after.HeapAlloc-before.HeapAlloc) / n
	if perGuard > maxGuardBytes {
		t.Errorf("marginal per-guard footprint %d bytes exceeds %d", perGuard, maxGuardBytes)
	}
	if perGuard >= bin.Art.Size() {
		t.Errorf("per-guard footprint %d bytes >= artifact size %d: state is being copied", perGuard, bin.Art.Size())
	}
	runtime.KeepAlive(guards)
}

// TestKernelModuleForkInheritance drives the full fleet fork path
// in-package: a protected, artifact-backed forkd parent forks under the
// kernel module, every child is protected by inheritance before it
// runs (onFork → ProtectForked), and the inherited guards share the
// parent's artifact and approvals while keeping their own ledgers.
func TestKernelModuleForkInheritance(t *testing.T) {
	a := analyze(t, apps.Forkd())
	a.train(t, []byte("abcdabcd"), []byte("dcbaadbc"))
	art := a.ig.Artifact()

	k := kernelsim.New()
	km := guard.InstallModule(k)
	p, err := a.app.Spawn(k, []byte("abFcdFab"))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := km.Protect(p, a.ocfg, a.ig, guard.DefaultPolicy())
	if err != nil {
		t.Fatal(err)
	}
	parent.UseArtifact(art)

	sts, err := k.RunMulticore([]*kernelsim.Process{p}, 1, 200, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Two 'F' commands, executed by parent and first child alike (the
	// stdin cursor is inherited): 1 → 4 processes.
	const wantProcs = 4
	if len(sts) != wantProcs {
		t.Fatalf("got %d exit statuses, want %d", len(sts), wantProcs)
	}
	for i, st := range sts {
		if !st.Exited {
			t.Errorf("process %d did not survive the trained fork storm: %v", i, st)
		}
	}
	if reports := km.ReportsSnapshot(); len(reports) != 0 {
		t.Fatalf("false positives on a trained fork storm: %v", reports)
	}
	guards := km.Guards()
	if len(guards) != wantProcs {
		t.Fatalf("%d guards for %d processes: children ran unguarded", len(guards), wantProcs)
	}
	var inherits, checks uint64
	for _, g := range guards {
		if g.Artifact() != art {
			t.Error("a forked guard does not share the parent's artifact")
		}
		if g.Approvals() != parent.Approvals() {
			t.Error("a forked guard does not share the parent's approval cache")
		}
		inherits += g.Stats.ForkInherits
		checks += g.Stats.Checks
	}
	if inherits != wantProcs-1 {
		t.Errorf("%d ForkInherits across %d processes, want %d", inherits, wantProcs, wantProcs-1)
	}
	if checks == 0 {
		t.Error("no endpoint checks ran anywhere in the storm")
	}
	// Cloning the live approval store yields an equal-size, independent
	// snapshot — what a conformance twin is pre-trained with.
	clone := parent.Approvals().Clone()
	if clone == parent.Approvals() {
		t.Fatal("Clone returned the live store itself")
	}
	if clone.Len() != parent.Approvals().Len() {
		t.Fatalf("clone holds %d approvals, live store %d", clone.Len(), parent.Approvals().Len())
	}
}

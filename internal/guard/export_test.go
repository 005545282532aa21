package guard

import "fmt"

// AsyncDrainCounts reports how many captured windows the async pipeline
// fed into the guard's process stream and how many it dropped as stale.
func AsyncDrainCounts(g *Guard) (fed, stale uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if a := g.main.async; a != nil {
		return a.fed, a.stale
	}
	return 0, 0
}

// ClearAnnotations zeroes the Mod and Memo bytes of every record the
// guard's process stream retains, so its next check resolves each record
// afresh, as a check without the per-record annotations would.
func ClearAnnotations(g *Guard) {
	g.mu.Lock()
	defer g.mu.Unlock()
	tips := g.main.win.dec.Tips()
	for i := range tips {
		tips[i].Mod, tips[i].Memo = 0, 0
	}
}

// CheckAnnotations reports the first record of the guard's process
// stream whose annotations are not what they cache: a module class other
// than the one FindModule gives its target, or a high-credit mark on a
// record whose edge from its predecessor is no high-credit cache hit of
// the artifact the marks were made under. (The first live record's
// predecessor is gone; its mark is not checked.)
func CheckAnnotations(g *Guard) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	tips := g.main.win.dec.Tips()
	for k, r := range tips {
		if r.Mod != modUnresolved && r.Mod != wantMod(g.AS, r.IP) {
			return fmt.Errorf("record %d at %d (%#x) carries module class %d, want %d", k, r.Off, r.IP, r.Mod, wantMod(g.AS, r.IP))
		}
		if r.Memo == 0 || k == 0 {
			continue
		}
		p := tips[k-1]
		if hit, sigOK := g.main.memoArt.CacheLookup(p.IP, r.IP, r.TNTSig); !hit || !sigOK || p.Async || r.Resync || r.Async {
			return fmt.Errorf("record %d at %d is marked a high-credit hit, but its edge %#x -> %#x is not one", k, r.Off, p.IP, r.IP)
		}
	}
	return nil
}

// RecordStorage returns the record capacity of the window decoder of the
// guard's process stream and the capacity reserved for it when the
// stream was built.
func RecordStorage(g *Guard) (capacity, reserved int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.main.win.dec.RecordCap(), reservedRecords(g.Tracer.Out.Capacity())
}

// SlowChecks returns how many checks of the guard took the slow path and
// how many of those resumed the suspended walk of their stream's
// previous clean slow check instead of walking their region from its
// start.
func SlowChecks(g *Guard) (slow, resumed uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if r := g.main.slow; r != nil {
		resumed = r.resumed
	}
	return g.Stats.SlowChecks, resumed
}

// AsyncPoolWorkers returns how many of p's worker goroutines are running.
func AsyncPoolWorkers(p *AsyncPool) int { return int(p.live.Load()) }

// ModuleAsyncPool returns the async pool the module's protected
// processes are drained by (nil before the first async protection and
// after Shutdown).
func ModuleAsyncPool(m *KernelModule) *AsyncPool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.apool
}

// FleetInflight returns how many of the tenant's checks are inside its
// shard of f (queued or running), the count the fair-share rule reads.
func FleetInflight(f *FleetPool, tenant string) int {
	s := f.shardFor(tenant)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight[tenant]
}

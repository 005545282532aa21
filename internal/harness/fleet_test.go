package harness

import (
	"runtime"
	"testing"
	"time"
)

// TestFleetGoroutinesExit pins the fleet's goroutine lifetime: Run's
// driver goroutines all return before Run does, and the admission layer
// (FleetPool) starts none of its own, so after a run with fork storms
// the goroutine count is back to where it was before the fleet was
// built.
func TestFleetGoroutinesExit(t *testing.T) {
	// settled polls, with a bound, until the goroutine count is back to
	// what it was before the fleet was built.
	settled := func(t *testing.T, before int, when string) {
		t.Helper()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines still running, %d before the fleet was built", when, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	before := runtime.NumGoroutine()
	f, err := NewRunner().NewFleet(FleetConfig{
		Procs:           200,
		Tenants:         8,
		Shards:          2,
		WorkersPerShard: 2,
		Drivers:         4,
		ForkEvery:       50,
	})
	if err != nil {
		t.Fatal(err)
	}
	settled(t, before, "after NewFleet")
	res, err := f.Run(2000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bad := res.Check(); len(bad) != 0 {
		t.Fatalf("fleet invariants broken: %v", bad)
	}
	if res.Forks == 0 {
		t.Fatal("the run forked nothing; ForkEvery went unexercised")
	}
	settled(t, before, "after Run")
}

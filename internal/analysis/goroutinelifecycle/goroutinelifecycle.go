// Package goroutinelifecycle checks the spawn/join hygiene of the
// checker's worker machinery. AsyncPool and FleetPool live or die by
// three idioms this analyzer turns into rules:
//
//   - no goroutine spawned while a mutex is held — the child can run
//     immediately, contend on the same lock, and self-deadlock in ways
//     no short test reproduces
//   - sync.WaitGroup discipline: Add happens-before the `go`
//     statement, never inside the spawned body (the race with Wait is
//     the classic lost-Add bug); Wait is never called with a lock held
//     (workers that need the lock to finish can never let Wait return);
//     and a WaitGroup class that is Added and Waited on but never
//     Done'd anywhere in the package can never return
//   - a send on a function-local unbuffered channel that never escapes
//     the function and has no receive or close in scope blocks forever
//     — the goroutine leak shape (sends guarded by select-with-default
//     are exempt: they shed instead of blocking)
//
// The checks are summary-based and intra-package: spawn sites, the
// held-lock sets at them, WaitGroup classes, and local-channel
// lifecycles all come from the summary walk, including inside function
// literals (where the real spawns live).
package goroutinelifecycle

import (
	"flowguard/internal/analysis"
	"flowguard/internal/analysis/summary"
)

// Analyzer is the goroutinelifecycle analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinelifecycle",
	Doc: "no goroutine spawn or WaitGroup.Wait under a held mutex; Add before go, " +
		"not inside the spawned body; no send on a local channel nothing can receive",
	Needs: analysis.NeedSummaries,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	// Spawned literal bodies, for the Add-inside-goroutine check.
	spawned := map[summary.FuncKey]bool{}
	for _, key := range pass.Sum.Order {
		for _, c := range pass.Sum.Funcs[key].Calls {
			if c.Go && c.Callee != "" {
				spawned[c.Callee] = true
			}
		}
	}
	// Package-wide Done evidence per WaitGroup class.
	doneCount := map[summary.LockClass]int{}
	for _, key := range pass.Sum.Order {
		for _, wg := range pass.Sum.Funcs[key].WaitGroups {
			if wg.Kind == "Done" {
				doneCount[wg.Class]++
			}
		}
	}

	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		for _, c := range fn.Calls {
			if c.Go && len(c.Held) > 0 {
				pass.Reportf(c.Pos, "goroutine spawned while holding %s: the child can contend on the same lock immediately (move the go statement after Unlock)",
					c.Held[0].Expr)
			}
		}
		adds := int64(0)
		constAdds := true
		hasWait := false
		for _, wg := range fn.WaitGroups {
			switch wg.Kind {
			case "Add":
				if spawned[fn.Key] {
					pass.Reportf(wg.Pos, "%s.Add inside the spawned goroutine races Wait: a Wait that runs before this Add returns early (Add before the go statement)",
						wg.Expr)
				}
				if wg.Delta < 0 {
					constAdds = false
				} else {
					adds += wg.Delta
				}
			case "Wait":
				hasWait = true
				if len(wg.Held) > 0 {
					pass.Reportf(wg.Pos, "%s.Wait while holding %s: workers needing the lock can never finish (release it before waiting)",
						wg.Expr, wg.Held[0].Expr)
				}
			}
		}
		// Add+Wait with no Done anywhere in the package: Wait can
		// never return. Only constant, positive Adds are judged —
		// dynamic worker counts hand Done to code this package may
		// receive as callbacks.
		if hasWait && constAdds && adds > 0 {
			for _, wg := range fn.WaitGroups {
				if wg.Kind == "Add" && doneCount[wg.Class] == 0 {
					pass.Reportf(wg.Pos, "%s.Add(%d) with Wait but no %s.Done anywhere in this package: Wait can never return",
						wg.Expr, wg.Delta, wg.Expr)
					break
				}
			}
		}
		// Local channels nothing can drain.
		for _, lc := range fn.LocalChans {
			if lc.Escapes || !lc.Unbuffered || lc.Sends == 0 {
				continue
			}
			if lc.Recvs > 0 || lc.Closes > 0 {
				continue
			}
			if lc.NonBlockingSends == lc.Sends {
				continue // every send sheds via select-with-default
			}
			pass.Reportf(lc.FirstSend, "send on %s: the channel is unbuffered, never leaves this function, and has no receive or close in scope — the sender blocks forever",
				lc.Name)
		}
	}
	return nil
}

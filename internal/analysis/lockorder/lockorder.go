// Package lockorder enforces the checker's locking rules: no blocking
// or foreign code under a lock, and one global acquisition order.
// Guard.Check serializes on g.mu and each FleetPool shard's admission
// and accounting use its mu; both sit on the endpoint-check critical
// path, where a mutex held across a blocking operation — the shard's
// slot channel, its Hold hook — turns one slow process into a
// fleet-wide stall (the §6 offloading argument assumes checks of
// different processes never wait on each other's bookkeeping). The
// AsyncPool and the FleetPool route every check through several
// mutexes (g.mu → a.mu, genMu → stripe.mu, shard.mu); a single call
// path that takes two of them in the opposite order is a latent
// fleet-wide deadlock that no test reliably reproduces. The analyzer:
//
//   - flags, inside any function (function literals included, each
//     with its own lock regions), a channel send or receive, a
//     time.Sleep call, or a call through a function value (callback,
//     hook field) while a sync.Mutex/RWMutex is held — callbacks run
//     arbitrary code and must never run under checker locks — and a
//     lock-containing value copied into a `go` statement, whose copy
//     guards nothing. The walk is linear over the function body (defer
//     x.Unlock() pins the lock to function end): a discipline check,
//     not a model checker
//   - collects, per function, the locks acquired while other locks are
//     held (directly from the summary walk, and transitively through
//     static calls: if f holds A and calls g, every lock g acquires is
//     acquired under A)
//   - exports the resulting acquisition edges and per-function acquire
//     sets as package facts, merges them with the facts of every
//     dependency, and reports any cycle in the global graph
//   - re-grounds the blocking rules interprocedurally: calling a
//     function that (transitively) performs a blocking channel
//     operation or time.Sleep while holding a lock is flagged at the
//     call site, not just when the operation is textually inside the
//     locked region
//
// Lock identity is the owning type's field (one class per
// "pkg.Type.field"), so two instances of the same struct share a
// class. Striped locks (stripes[i].mu then stripes[j].mu) therefore
// show up as a self-edge A → A; self-edges are excluded — ordering
// within a class is the code's own responsibility (e.g. by index), and
// treating them as cycles would flag every stripe sweep. Goroutine
// spawns break the held-chain: a lock the child takes is not taken
// under the parent's locks. Select statements with a default case are
// non-blocking and are not blocking evidence.
package lockorder

import (
	"fmt"
	"go/token"
	"sort"
	"strings"

	"flowguard/internal/analysis"
	"flowguard/internal/analysis/summary"
)

// Analyzer is the lockorder analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "no mutex held across a channel send/receive, time.Sleep, callback " +
		"invocation or call to a (transitively) blocking function; no " +
		"lock-containing value copied into a go statement; global mutex " +
		"acquisition-order graph must be acyclic",
	Needs: analysis.NeedSummaries,
	Facts: func() any { return new(Facts) },
	Run:   run,
}

// Facts is the per-package fact: the acquisition-order edges the
// package contributes and, per function, what it acquires and whether
// it can block — everything a dependent package needs to extend the
// graph across package boundaries.
type Facts struct {
	// Edges are the acquisition-order edges observed in this package
	// (including those induced through calls into dependencies).
	Edges []Edge
	// Funcs maps summary.FuncKey strings of exported-reachable
	// functions to their transitive effects.
	Funcs map[string]*FuncFact
}

// Edge is one "To acquired while From held" observation.
type Edge struct {
	From, To string // lock classes
	// Expr renders the acquisition as written ("a.mu under g.mu").
	Expr string
	// Site is "file:line" of the acquisition, for cross-package
	// diagnostics.
	Site string
	// Local is true in the reporting package only (not serialized):
	// cycles are reported once, by a package contributing an edge.
	Local bool `json:"-"`
	// Pos is the acquisition position for local edges (not
	// serialized; cross-package edges report via Site instead).
	Pos token.Pos `json:"-"`
}

// FuncFact is one function's transitive lock behavior.
type FuncFact struct {
	// Acquires lists lock classes the function (transitively)
	// acquires on the caller's goroutine.
	Acquires []string
	// Blocks describes the first (transitively reached) blocking
	// operation — "" when the function cannot block.
	Blocks string
}

func run(pass *analysis.Pass) error {
	reportHeld(pass)

	// Merge dependency facts.
	depFuncs := map[string]*FuncFact{}
	var edges []Edge
	err := pass.EachFact(func(pkgPath string, fact any) {
		f := fact.(*Facts)
		for k, ff := range f.Funcs {
			depFuncs[k] = ff
		}
		edges = append(edges, f.Edges...)
	})
	if err != nil {
		return err
	}

	// Fixed point over the package's own callgraph: transitive
	// acquire sets and blocking reasons.
	acquires := map[summary.FuncKey]map[summary.LockClass]bool{}
	blocks := map[summary.FuncKey]string{}
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		set := map[summary.LockClass]bool{}
		for _, a := range fn.Acquires {
			if (a.Op == "Lock" || a.Op == "RLock") && !localClass(a.Class) {
				set[a.Class] = true
			}
		}
		acquires[key] = set
		blocks[key] = directBlock(fn)
	}
	for changed := true; changed; {
		changed = false
		for _, key := range pass.Sum.Order {
			fn := pass.Sum.Funcs[key]
			for _, c := range fn.Calls {
				if c.Go || c.Callee == "" {
					continue
				}
				for _, cls := range calleeAcquires(c.Callee, acquires, depFuncs) {
					if !acquires[key][cls] {
						acquires[key][cls] = true
						changed = true
					}
				}
				if blocks[key] == "" {
					if b := calleeBlocks(c.Callee, blocks, depFuncs); b != "" {
						blocks[key] = fmt.Sprintf("calls %s, which %s", c.Name, b)
						changed = true
					}
				}
			}
		}
	}

	// Edges: direct (from the summary walk) plus call-induced (callee
	// acquires under the caller's held set).
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		for _, e := range fn.AcquireEdges {
			if localClass(e.From) || localClass(e.To) {
				continue
			}
			edges = append(edges, Edge{
				From: string(e.From), To: string(e.To),
				Expr:  e.ToExpr + " under " + e.FromExpr,
				Site:  pass.Fset.Position(e.Pos).String(),
				Local: true, Pos: e.Pos,
			})
		}
		for _, c := range fn.Calls {
			if c.Go || c.Callee == "" || len(c.Held) == 0 {
				continue
			}
			for _, cls := range calleeAcquires(c.Callee, acquires, depFuncs) {
				for _, h := range c.Held {
					if h.Class == cls || localClass(h.Class) {
						continue
					}
					edges = append(edges, Edge{
						From: string(h.Class), To: string(cls),
						Expr:  "via " + c.Name + "() under " + h.Expr,
						Site:  pass.Fset.Position(c.Pos).String(),
						Local: true, Pos: c.Pos,
					})
				}
			}
			// Blocking call under a held lock: the interprocedural
			// form of reportHeld's rules.
			if b := calleeBlocks(c.Callee, blocks, depFuncs); b != "" {
				pass.Reportf(c.Pos, "call to %s while holding %s: it %s — a blocked checker stalls every sibling (release the lock first)",
					c.Name, c.Held[0].Expr, b)
			}
		}
	}

	reportCycles(pass, edges)
	exportFacts(pass, acquires, blocks, edges)
	return nil
}

// reportHeld reports what each function does textually inside its own
// lock regions: blocking channel operations, time.Sleep and callback
// invocations, plus lock-containing values copied into go statements.
func reportHeld(pass *analysis.Pass) {
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		for _, cp := range fn.GoLockCopies {
			pass.Reportf(cp.Pos, "copying a lock-containing %s value into a go statement: the copy guards nothing (pass a pointer)", cp.Type)
		}
		for _, c := range fn.Calls {
			if len(c.Held) == 0 {
				continue
			}
			switch {
			case c.Callee == "time.Sleep":
				pass.Reportf(c.Pos, "time.Sleep while holding %s: a stalled checker blocks every sibling (release the lock first)", c.Held[0].Expr)
			case c.Dynamic:
				pass.Reportf(c.Pos, "callback invoked while holding %s: hooks must never run under checker locks", c.Held[0].Expr)
			}
		}
		for _, op := range fn.Chans {
			if len(op.Held) == 0 {
				continue
			}
			switch op.Kind {
			case summary.ChanSend:
				pass.Reportf(op.Pos, "channel send while holding %s", op.Held[0].Expr)
			case summary.ChanRecv:
				pass.Reportf(op.Pos, "channel receive while holding %s", op.Held[0].Expr)
			}
		}
	}
}

// exportFacts serializes this package's contribution: its own edges
// and the transitive behavior of its non-literal functions.
func exportFacts(pass *analysis.Pass, acquires map[summary.FuncKey]map[summary.LockClass]bool, blocks map[summary.FuncKey]string, edges []Edge) {
	out := &Facts{Funcs: map[string]*FuncFact{}}
	for _, e := range edges {
		if e.Local {
			out.Edges = append(out.Edges, e)
		}
	}
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		if fn.Lit {
			continue // literals are not callable across packages
		}
		ff := &FuncFact{Blocks: blocks[key]}
		for c := range acquires[key] {
			ff.Acquires = append(ff.Acquires, string(c))
		}
		sort.Strings(ff.Acquires)
		if len(ff.Acquires) > 0 || ff.Blocks != "" {
			out.Funcs[string(key)] = ff
		}
	}
	pass.ExportFact(out)
}

// localClass reports a fallback (function-local) lock class, excluded
// from the global graph: its identity is an expression string, which
// would alias unrelated locals across functions.
func localClass(c summary.LockClass) bool { return strings.Contains(string(c), "#local:") }

// directBlock describes fn's first direct blocking operation.
func directBlock(fn *summary.Func) string {
	for _, op := range fn.Chans {
		if op.NonBlocking {
			continue
		}
		switch op.Kind {
		case summary.ChanSend:
			return "sends on a channel"
		case summary.ChanRecv:
			return "receives from a channel"
		}
	}
	for _, c := range fn.Calls {
		if !c.Go && c.Callee == "time.Sleep" {
			return "calls time.Sleep"
		}
	}
	return ""
}

func calleeAcquires(callee summary.FuncKey, own map[summary.FuncKey]map[summary.LockClass]bool, dep map[string]*FuncFact) []summary.LockClass {
	if set, ok := own[callee]; ok {
		out := make([]summary.LockClass, 0, len(set))
		for c := range set {
			out = append(out, c)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	if ff, ok := dep[string(callee)]; ok {
		out := make([]summary.LockClass, len(ff.Acquires))
		for i, c := range ff.Acquires {
			out[i] = summary.LockClass(c)
		}
		return out
	}
	return nil
}

func calleeBlocks(callee summary.FuncKey, own map[summary.FuncKey]string, dep map[string]*FuncFact) string {
	if b, ok := own[callee]; ok {
		return b
	}
	if ff, ok := dep[string(callee)]; ok {
		return ff.Blocks
	}
	return ""
}

// reportCycles finds cycles in the merged edge set and reports each
// once, at a locally-contributed edge that closes it.
func reportCycles(pass *analysis.Pass, edges []Edge) {
	adj := map[string]map[string]bool{}
	for _, e := range edges {
		if e.From == e.To {
			continue
		}
		m := adj[e.From]
		if m == nil {
			m = map[string]bool{}
			adj[e.From] = m
		}
		m[e.To] = true
	}
	// reaches reports whether from reaches to in the edge graph.
	reaches := func(from, to string) []string {
		type node struct {
			name string
			prev *node
		}
		seen := map[string]bool{from: true}
		queue := []*node{{name: from}}
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			if n.name == to {
				var path []string
				for ; n != nil; n = n.prev {
					path = append([]string{n.name}, path...)
				}
				return path
			}
			next := make([]string, 0, len(adj[n.name]))
			for s := range adj[n.name] {
				next = append(next, s)
			}
			sort.Strings(next)
			for _, s := range next {
				if !seen[s] {
					seen[s] = true
					queue = append(queue, &node{name: s, prev: n})
				}
			}
		}
		return nil
	}
	reported := map[string]bool{}
	for _, e := range edges {
		if !e.Local || e.From == e.To {
			continue
		}
		back := reaches(e.To, e.From)
		if back == nil {
			continue
		}
		cycle := strings.Join(append([]string{e.From}, back...), " -> ")
		if reported[cycle] {
			continue
		}
		reported[cycle] = true
		pass.Reportf(e.Pos, "lock-order cycle: %s (edge %s): opposite acquisition orders can deadlock — pick one global order",
			cycle, e.Expr)
	}
}

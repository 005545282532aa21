// Package hotpathinterproc statically enforces the zero-allocation
// contract of FlowGuard's fast path. The paper's performance argument
// (§5.3, §7.2.2) depends on the per-endpoint packet scan and ITC-CFG
// binary searches staying allocation-free in steady state; functions
// annotated with a
//
//	//fg:hotpath
//
// doc-comment line are held to it, directly and through everything
// they call.
//
// Directly: an annotated function must not contain an
// allocation-forcing construct. The summary package records them for
// every function (calls into fmt, errors, sort or strconv; closures;
// map/slice composite literals, make, new; string concatenation and
// string([]byte) conversions; interface boxing; append into anything
// but caller- or receiver-owned scratch), and this analyzer reports
// those of //fg:hotpath functions. Constructs inside a `return` that
// also returns a non-nil error are exempt: failure exits abandon the
// fast path, so building the error there is deliberate and harmless.
//
// Transitively: calling an ordinary helper is the sanctioned escape
// hatch for *cold* work, but a helper that allocates on every
// invocation, called from inside the annotated packet-scan loop, costs
// exactly what an inline allocation costs. Starting from each
// //fg:hotpath function the analyzer follows static calls and flags
// any call whose callee (transitively) reaches an allocation-forcing
// construct, printing the offending chain.
//
// Exemptions, expressed as facts so they compose across packages:
//
//   - callees annotated //fg:hotpath are not descended into — they
//     carry the obligation themselves and are checked independently
//   - callees annotated `//fg:cold <reason>` are sanctioned cold
//     helpers (violation diagnostics, buffer growth): the annotation
//     is the explicit, documented statement that this call is off the
//     steady-state path. A //fg:cold with no reason is itself an error.
//   - calls inside a failure-exit return (returning a non-nil error)
//     abandon the fast path and are exempt, as are allocations that
//     sit in a callee's own failure exits
//   - `go` statements: the spawned work is off the caller's path
//
// Dynamic calls (function values, interface methods) cannot be
// resolved statically and are not followed; lockorder already forbids
// callback invocation in the states that matter.
//
// Per-function allocation reachability (with a witness chain) is
// exported as a package fact, so a hot function in guard calling a
// helper in itc sees through the package boundary — dependencies are
// analyzed first and their facts merged (see the analysis package).
package hotpathinterproc

import (
	"strings"

	"flowguard/internal/analysis"
	"flowguard/internal/analysis/summary"
)

// Analyzer is the hotpathalloc-interproc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc-interproc",
	Doc: "//fg:hotpath functions, and the functions they reach, must not contain allocation-forcing " +
		"constructs (fmt, closures, map/slice literals, interface boxing, non-scratch append); " +
		"cold helpers need an explicit //fg:cold <reason> annotation",
	Needs: analysis.NeedSummaries,
	Facts: func() any { return new(Facts) },
	Run:   run,
}

// Facts is the per-package fact: each function's hot/cold annotations
// and whether it transitively reaches an allocation.
type Facts struct {
	Funcs map[string]*FuncFact
}

// FuncFact is one function's propagation state.
type FuncFact struct {
	Hot  bool `json:",omitempty"`
	Cold bool `json:",omitempty"`
	// AllocReach is set when the function allocates (outside failure
	// exits) or reaches a function that does.
	AllocReach bool `json:",omitempty"`
	// Witness is the call chain to the first allocation reached,
	// ending in "func: message".
	Witness []string `json:",omitempty"`
}

func run(pass *analysis.Pass) error {
	depFuncs := map[string]*FuncFact{}
	err := pass.EachFact(func(pkgPath string, fact any) {
		for k, ff := range fact.(*Facts).Funcs {
			depFuncs[k] = ff
		}
	})
	if err != nil {
		return err
	}

	// Per-function state for this package.
	facts := map[summary.FuncKey]*FuncFact{}
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		ff := &FuncFact{Hot: fn.Hot, Cold: fn.Cold}
		for _, a := range fn.Allocs {
			if a.FailRet {
				continue // sanctioned failure-exit shape
			}
			if fn.Hot {
				pass.Reportf(a.Pos, "%s", a.Msg)
			}
			if !ff.AllocReach {
				ff.AllocReach = true
				ff.Witness = []string{fn.Name + ": " + shorten(a.Msg)}
			}
		}
		facts[key] = ff
		if fn.ColdMalformed {
			pass.Reportf(fn.Pos, "malformed //fg:cold: want \"//fg:cold <reason>\" — an undocumented exemption is not an exemption")
		}
	}

	// Fixed point: propagate reachability backwards through static,
	// non-go, non-failure-exit calls. Hot and cold callees terminate
	// propagation (hot callees carry their own obligation; cold ones
	// are sanctioned).
	lookup := func(callee summary.FuncKey) *FuncFact {
		if ff, ok := facts[callee]; ok {
			return ff
		}
		return depFuncs[string(callee)]
	}
	for changed := true; changed; {
		changed = false
		for _, key := range pass.Sum.Order {
			ff := facts[key]
			if ff.AllocReach {
				continue
			}
			fn := pass.Sum.Funcs[key]
			for _, c := range fn.Calls {
				if c.Go || c.FailRet || c.Callee == "" {
					continue
				}
				cf := lookup(c.Callee)
				if cf == nil || cf.Hot || cf.Cold || !cf.AllocReach {
					continue
				}
				ff.AllocReach = true
				ff.Witness = append([]string{fn.Name}, cf.Witness...)
				changed = true
				break
			}
		}
	}

	// Report: every call from a //fg:hotpath function into an
	// allocation-reaching callee. Transitivity is already folded into
	// AllocReach, so direct calls are the complete frontier.
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		if !fn.Hot {
			continue
		}
		for _, c := range fn.Calls {
			if c.Go || c.FailRet || c.Callee == "" {
				continue
			}
			cf := lookup(c.Callee)
			if cf == nil || cf.Hot || cf.Cold || !cf.AllocReach {
				continue
			}
			pass.Reportf(c.Pos, "call to %s on the hot path reaches an allocation: %s (annotate the callee //fg:hotpath, hoist the allocation, or mark it //fg:cold <reason>)",
				c.Name, strings.Join(cf.Witness, " -> "))
		}
	}

	// Export everything non-trivial.
	out := &Facts{Funcs: map[string]*FuncFact{}}
	for _, key := range pass.Sum.Order {
		fn := pass.Sum.Funcs[key]
		if fn.Lit {
			continue // literals are not callable across packages
		}
		ff := facts[key]
		if ff.Hot || ff.Cold || ff.AllocReach {
			out.Funcs[string(key)] = ff
		}
	}
	pass.ExportFact(out)
	return nil
}

// shorten trims the hot-path phrasing off an allocation message for
// chain rendering ("make allocates on the hot path (...)" -> "make
// allocates").
func shorten(msg string) string {
	if i := strings.Index(msg, " on the hot path"); i > 0 {
		return msg[:i]
	}
	return msg
}

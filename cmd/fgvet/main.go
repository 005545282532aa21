// Command fgvet is FlowGuard's domain-specific multichecker: it runs
// the internal/analysis suite over the module and fails on any
// unsuppressed finding. It is part of `make vet` and the CI lint job;
// the analyzers turn the repo's implicit contracts into build gates:
//
//	oracleisolation  the differential oracle shares no code with the
//	                 production pipeline (DESIGN.md §7)
//	failclosed       Verdict/TraceHealth decisions are exhaustive and
//	                 never pass from a default branch (§7.1.2)
//	hotpathalloc-interproc
//	                 //fg:hotpath functions and the helpers they reach
//	                 stay allocation-free; cold calls carry
//	                 //fg:cold <reason> (§5.3, §8)
//	lockorder        no checker lock held across blocking operations or
//	                 callbacks (§6), directly or through a call, and one
//	                 global mutex acquisition order — opposite orders
//	                 anywhere in the callgraph can deadlock (§8)
//	atomicfield      a field accessed via sync/atomic is never touched
//	                 plainly outside its constructor (§8)
//	goroutinelifecycle
//	                 Add before go, no spawn or Wait under a lock, no
//	                 send on a channel nothing can drain (§8)
//
// Packages are analyzed in dependency order against a shared fact
// store, so interprocedural analyzers (lockorder, atomicfield,
// hotpathalloc-interproc) see through package boundaries. In-module
// dependencies pulled in only to seed facts are analyzed but not
// reported on.
//
// Findings are suppressed line-by-line with a documented
//
//	//fg:ignore <analyzer> <reason>
//
// and every suppression is echoed in the output (with -quiet they are
// counted but not printed), so exceptions stay visible. Stale or
// undocumented suppressions are errors.
//
// Usage:
//
//	fgvet [-quiet] [-list] [-json] [packages]
//
// With no package patterns, ./... is checked. With -json, findings are
// emitted as a single JSON array on stdout (suppressed ones included,
// flagged) for tooling; the exit status is unchanged.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"flowguard/internal/analysis"
	"flowguard/internal/analysis/atomicfield"
	"flowguard/internal/analysis/failclosed"
	"flowguard/internal/analysis/goroutinelifecycle"
	"flowguard/internal/analysis/hotpathinterproc"
	"flowguard/internal/analysis/lockorder"
	"flowguard/internal/analysis/oracleisolation"
)

// analyzers is the full suite, in stable output order.
var analyzers = []*analysis.Analyzer{
	atomicfield.Analyzer,
	failclosed.Analyzer,
	goroutinelifecycle.Analyzer,
	hotpathinterproc.Analyzer,
	lockorder.Analyzer,
	oracleisolation.Analyzer,
}

// jsonFinding is the -json wire shape: flat, stable field names.
type jsonFinding struct {
	File           string `json:"file"`
	Line           int    `json:"line"`
	Column         int    `json:"column"`
	Analyzer       string `json:"analyzer"`
	Message        string `json:"message"`
	Suppressed     bool   `json:"suppressed,omitempty"`
	SuppressReason string `json:"suppressReason,omitempty"`
}

func main() {
	quiet := flag.Bool("quiet", false, "do not print suppressed findings")
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-22s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fail(err)
	}
	loader := analysis.NewLoader(wd)
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fail(err)
	}

	// One store across the whole run: Load returns dependencies before
	// dependents, so each package sees its deps' facts.
	store := analysis.NewFactStore()
	bad, suppressed, reported := 0, 0, 0
	var out []jsonFinding
	for _, pkg := range pkgs {
		findings, err := analysis.RunPkg(pkg, analyzers, store)
		if err != nil {
			fail(err)
		}
		if pkg.FactsOnly {
			continue // analyzed for facts; not in the requested patterns
		}
		reported++
		for _, f := range findings {
			if *jsonOut {
				out = append(out, jsonFinding{
					File: f.Position.Filename, Line: f.Position.Line, Column: f.Position.Column,
					Analyzer: f.Analyzer, Message: f.Message,
					Suppressed: f.Suppressed, SuppressReason: f.SuppressReason,
				})
			}
			if f.Suppressed {
				suppressed++
				if !*quiet && !*jsonOut {
					fmt.Println(f)
				}
				continue
			}
			bad++
			if !*jsonOut {
				fmt.Println(f)
			}
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if out == nil {
			out = []jsonFinding{}
		}
		if err := enc.Encode(out); err != nil {
			fail(err)
		}
	}
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "fgvet: %d finding(s) suppressed by documented //fg:ignore\n", suppressed)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "fgvet: %d finding(s) in %d package(s)\n", bad, reported)
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fgvet:", err)
	os.Exit(1)
}

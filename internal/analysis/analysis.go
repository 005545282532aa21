// Package analysis is a small, stdlib-only analogue of
// golang.org/x/tools/go/analysis: enough driver machinery to write
// domain-specific static checkers for this repository without pulling
// in a dependency. FlowGuard's security argument rests on invariants
// the compiler cannot see — fail-closed verdict handling, the
// zero-allocation fast path, the oracle's import isolation, deadlock
// freedom of the async/fleet checker — and the analyzers built on this
// package (see cmd/fgvet) turn those implicit contracts into
// machine-checked ones.
//
// An Analyzer inspects one package at a time. The driver hands it a
// Pass holding the parsed files, (for NeedTypes analyzers) the
// type-checked package and types.Info, and (for NeedSummaries
// analyzers) per-function effect summaries plus the fact store.
// Interprocedural analyzers communicate through serialized per-package
// **facts**, mirroring go/analysis modularity: the driver visits
// packages in dependency order, each analyzer exports one JSON-encoded
// fact per package (Pass.ExportFact), and downstream packages read the
// accumulated facts back (Pass.EachFact).
//
// The analyzer reports findings via Pass.Reportf. Findings can be
// suppressed at the offending line with a documented comment:
//
//	//fg:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The
// reason is mandatory: an undocumented suppression is itself an error.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"flowguard/internal/analysis/summary"
)

// Needs is the bitmask of inputs an analyzer requires.
type Needs uint

const (
	// NeedTypes requests a fully type-checked Pass. Analyzers that
	// only look at syntax (imports, comments) leave it unset and can
	// run without a working build cache.
	NeedTypes Needs = 1 << iota
	// NeedSummaries requests per-function effect summaries
	// (Pass.Sum) and access to the cross-package fact store. Implies
	// NeedTypes.
	NeedSummaries
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fg:ignore comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Needs declares the inputs the analyzer requires.
	Needs Needs
	// Facts, when non-nil, returns a new zero value of the analyzer's
	// per-package fact type — the prototype the driver decodes stored
	// facts into. An analyzer with a Facts prototype runs on
	// dependency packages too (facts-only), so downstream packages
	// can see their effects.
	Facts func() any
	// Run performs the check and reports findings on the pass.
	Run func(*Pass) error
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass holds the per-package inputs handed to an Analyzer.Run.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's non-test files, parsed with comments.
	Files []*ast.File
	// PkgPath is the package's import path ("flowguard/internal/guard").
	PkgPath string
	// Pkg and TypesInfo are nil unless Analyzer.Needs has NeedTypes.
	Pkg       *types.Package
	TypesInfo *types.Info
	// Sum is the package's function-effect summary (nil unless
	// Analyzer.Needs has NeedSummaries).
	Sum *summary.Package

	store  *FactStore
	export any
	diags  []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostics returns the findings reported so far, in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool { return p.diags[i].Pos < p.diags[j].Pos })
	return p.diags
}

// ExportFact records this package's fact for the analyzer. The driver
// serializes it into the fact store after Run returns, making it
// visible to later (dependent) packages. fact must be of the type
// Analyzer.Facts returns.
func (p *Pass) ExportFact(fact any) { p.export = fact }

// EachFact decodes every fact exported for this analyzer by packages
// already visited this run (dependencies first: the driver walks in
// dependency order), calling fn with each. Facts are decoded into
// fresh Analyzer.Facts prototypes.
func (p *Pass) EachFact(fn func(pkgPath string, fact any)) error {
	if p.store == nil || p.Analyzer.Facts == nil {
		return nil
	}
	return p.store.each(p.Analyzer.Name, p.Analyzer.Facts, fn)
}

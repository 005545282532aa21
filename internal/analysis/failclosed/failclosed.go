// Package failclosed statically enforces the hybrid checker's
// fail-closed contract (§7.1.2 of the paper, DESIGN.md degraded-mode
// section): code that branches on a guard.Verdict or guard.TraceHealth
// must name every enumeration value it decides over, and no pass/clean
// outcome may be reached from a default-like branch. The invariant
// matters because both enumerations grow — a new TraceHealth class or
// verdict added for a new degraded mode must force every decision site
// to be revisited, instead of silently falling into a branch written
// when the value did not exist. The zero value of both monitored types
// is the passing value (VerdictClean, HealthClean), so "fail closed"
// concretely means: never produce the zero constant from a branch that
// did not explicitly match it.
package failclosed

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"flowguard/internal/analysis"
)

// MonitoredTypes names the enumerations under the fail-closed
// contract. Matching is by type name so that both the production types
// and fixture doubles are caught; only defined integer types qualify.
var MonitoredTypes = map[string]bool{
	"Verdict":     true,
	"TraceHealth": true,
}

// Analyzer is the failclosed analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "failclosed",
	Doc: "switches/ifs over guard.Verdict or guard.TraceHealth must handle every value " +
		"explicitly and must never reach a pass/clean outcome from a default branch",
	Needs: analysis.NeedTypes,
	Run:   run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.SwitchStmt:
				checkSwitch(pass, st)
			case *ast.IfStmt:
				checkIf(pass, st)
			}
			return true
		})
	}
	return nil
}

// monitored returns the defined type behind t if it is under the
// contract, else nil.
func monitored(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || !MonitoredTypes[named.Obj().Name()] {
		return nil
	}
	if b, ok := named.Underlying().(*types.Basic); !ok || b.Info()&types.IsInteger == 0 {
		return nil
	}
	return named
}

// enumConst is one declared constant of a monitored type.
type enumConst struct {
	name string
	val  constant.Value
}

// enumConstants lists the package-level constants of the type, sorted
// by value — the full enumeration the contract ranges over.
func enumConstants(named *types.Named) []enumConst {
	scope := named.Obj().Pkg().Scope()
	var out []enumConst
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), named) {
			continue
		}
		out = append(out, enumConst{name: name, val: c.Val()})
	}
	sort.Slice(out, func(i, j int) bool {
		return constant.Compare(out[i].val, token.LSS, out[j].val)
	})
	return out
}

func isZero(v constant.Value) bool {
	return constant.Compare(v, token.EQL, constant.MakeInt64(0))
}

// typeLabel renders the type as it reads at the decision site.
func typeLabel(named *types.Named) string {
	return named.Obj().Pkg().Name() + "." + named.Obj().Name()
}

// checkSwitch enforces both halves of the contract on a tagged switch.
func checkSwitch(pass *analysis.Pass, st *ast.SwitchStmt) {
	if st.Tag == nil {
		return
	}
	tv, ok := pass.TypesInfo.Types[st.Tag]
	if !ok {
		return
	}
	named := monitored(tv.Type)
	if named == nil {
		return
	}
	consts := enumConstants(named)
	handled := make([]bool, len(consts))
	sawNonConstCase := false
	var deflt *ast.CaseClause
	for _, s := range st.Body.List {
		cc, ok := s.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, e := range cc.List {
			etv, ok := pass.TypesInfo.Types[e]
			if !ok || etv.Value == nil {
				sawNonConstCase = true
				continue
			}
			for i, c := range consts {
				if constant.Compare(etv.Value, token.EQL, c.val) {
					handled[i] = true
				}
			}
		}
	}
	if !sawNonConstCase {
		var missing []string
		for i, c := range consts {
			if !handled[i] {
				missing = append(missing, c.name)
			}
		}
		if len(missing) > 0 {
			pass.Reportf(st.Pos(),
				"switch over %s is not exhaustive: missing %s (every value must be handled explicitly; unverifiable states fail closed)",
				typeLabel(named), strings.Join(missing, ", "))
		}
	}
	if deflt != nil {
		if use := passUseIn(pass, deflt, named, consts); use != nil {
			pass.Reportf(use.Pos(),
				"default branch of a switch over %s must not produce the passing value %s: fail closed instead",
				typeLabel(named), passName(consts))
		}
	}
}

// checkIf flags pass-by-exclusion: an if over a monitored comparison
// whose not-matched branch — the branch taken for every value the
// condition did not name, including values that do not exist yet —
// produces the passing value.
func checkIf(pass *analysis.Pass, st *ast.IfStmt) {
	be, ok := st.Cond.(*ast.BinaryExpr)
	if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
		return
	}
	var named *types.Named
	var cmp constant.Value
	for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
		vtv, vok := pass.TypesInfo.Types[pair[0]]
		ctv, cok := pass.TypesInfo.Types[pair[1]]
		if vok && cok && ctv.Value != nil {
			if m := monitored(vtv.Type); m != nil {
				named, cmp = m, ctv.Value
				break
			}
		}
	}
	if named == nil || isZero(cmp) {
		// Comparisons against the passing value itself are explicit
		// handling: `if v == VerdictClean { proceed }` names its case.
		return
	}
	// The branch reached when the value is NOT the named constant.
	var excluded ast.Node
	if be.Op == token.EQL {
		excluded = st.Else
	} else {
		excluded = st.Body
	}
	if excluded == nil {
		return
	}
	consts := enumConstants(named)
	if use := passUseIn(pass, excluded, named, consts); use != nil {
		pass.Reportf(use.Pos(),
			"passing value %s reached by excluding only %s of %s: handle each value explicitly (fail closed)",
			passName(consts), constName(consts, cmp), typeLabel(named))
	}
}

// passName returns the name of the zero (passing) constant.
func passName(consts []enumConst) string {
	for _, c := range consts {
		if isZero(c.val) {
			return c.name
		}
	}
	return "the zero value"
}

// constName resolves a constant value to its declared name.
func constName(consts []enumConst, v constant.Value) string {
	for _, c := range consts {
		if constant.Compare(c.val, token.EQL, v) {
			return c.name
		}
	}
	return v.String()
}

// passUseIn returns the first use of the passing (zero) constant of
// the monitored type inside node, or nil.
func passUseIn(pass *analysis.Pass, node ast.Node, named *types.Named, consts []enumConst) ast.Node {
	var found ast.Node
	ast.Inspect(node, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		c, ok := obj.(*types.Const)
		if !ok || !types.Identical(c.Type(), named) || !isZero(c.Val()) {
			return true
		}
		found = id
		return false
	})
	return found
}

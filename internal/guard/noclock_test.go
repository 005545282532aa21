package guard_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestGuardReadsNoClock pins that the guard's verdicts and admission
// never depend on wall time: no non-test file in this package reads the
// clock or arms a timer. A pooled check waits for its slot and the
// async gate never waits for the workers, so both replay exactly.
// time.Sleep is allowed only in asyncworker.go, where the WorkerStall
// fault hook wedges an async worker; FleetPool's Hold hook leaves any
// sleep to the test that sets it.
func TestGuardReadsNoClock(t *testing.T) {
	banned := map[string]bool{"Now": true, "Since": true, "NewTimer": true, "After": true, "Tick": true}
	sleepOK := map[string]bool{"asyncworker.go": true}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	parsed := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		timePkg := ""
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "time" {
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			}
		}
		if timePkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == timePkg {
				if banned[sel.Sel.Name] {
					t.Errorf("%s: time.%s reads the clock", fset.Position(sel.Pos()), sel.Sel.Name)
				}
				if sel.Sel.Name == "Sleep" && !sleepOK[name] {
					t.Errorf("%s: time.Sleep outside the async WorkerStall hook", fset.Position(sel.Pos()))
				}
			}
			return true
		})
	}
	if parsed == 0 {
		t.Fatal("no non-test Go files found; the test must run in the package directory")
	}
}

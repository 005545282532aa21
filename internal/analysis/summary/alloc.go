// Allocation-effect extraction: the per-construct hot-path walk,
// recording Alloc facts instead of reporting diagnostics. Every
// function gets the walk — not just //fg:hotpath ones — because the
// hot-path analyzer (hotpathinterproc) needs to know whether an
// *unannotated* helper allocates when it is reached transitively from
// a hot root; it reports the records of //fg:hotpath functions
// themselves with their rendered messages.

package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// BannedPackages always allocate (or force callbacks) and have no
// business on a hot path.
var BannedPackages = map[string]bool{
	"fmt":     true,
	"errors":  true,
	"sort":    true,
	"strconv": true,
}

// buildAllocs records fn's allocation-forcing constructs.
func (b *builder) buildAllocs(fn *Func, recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) {
	c := &allocWalker{b: b, fn: fn, derived: b.derivedSet(recv, ftype, body)}
	c.walk(body, false)
}

// derivedSet computes the function's scratch roots: the receiver, the
// parameters, named results, and every local provably derived from one
// of them (w := &g.win; buf := chunk; nb := append(w.buf, ...)).
// Appending through such a root reuses caller- or receiver-owned
// storage and is amortized allocation-free.
func (b *builder) derivedSet(recv *ast.FieldList, ftype *ast.FuncType, body *ast.BlockStmt) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	addField := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := b.info.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}
	addField(recv)
	addField(ftype.Params)
	addField(ftype.Results)

	exprDerived := func(e ast.Expr) bool {
		root := rootIdent(e)
		if root == nil {
			return false
		}
		obj := b.info.Uses[root.id]
		if obj == nil {
			obj = b.info.Defs[root.id]
		}
		return obj != nil && derived[obj]
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := b.info.Defs[id]
				if obj == nil {
					obj = b.info.Uses[id]
				}
				if obj == nil || derived[obj] {
					continue
				}
				if exprDerived(as.Rhs[i]) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// root is the base identifier an expression ultimately reads.
type root struct{ id *ast.Ident }

// rootIdent peels selectors, indexing, slicing, derefs, address-of and
// append calls down to the storage-owning identifier.
func rootIdent(e ast.Expr) *root {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return &root{id: x}
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && len(x.Args) > 0 {
				e = x.Args[0]
				continue
			}
			return nil
		default:
			return nil
		}
	}
}

type allocWalker struct {
	b       *builder
	fn      *Func
	derived map[types.Object]bool
}

func (c *allocWalker) record(kind AllocKind, pos token.Pos, inFailRet bool, format string, args ...any) {
	c.fn.Allocs = append(c.fn.Allocs, Alloc{
		Kind: kind, Msg: fmt.Sprintf(format, args...), FailRet: inFailRet, Pos: pos,
	})
}

// walk traverses the body recording allocation-forcing constructs.
// inFailRet marks descent through a return statement that also returns
// a non-nil error — the exempt failure-exit shape (recorded with the
// FailRet flag rather than dropped, so consumers choose).
func (c *allocWalker) walk(n ast.Node, inFailRet bool) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			if !inFailRet && returnsError(c.b.info, x) {
				for _, r := range x.Results {
					c.walk(r, true)
				}
				return false
			}
		case *ast.FuncLit:
			c.record(AllocClosure, x.Pos(), inFailRet, "closure on the hot path: func literals allocate and defeat inlining")
			return false
		case *ast.CompositeLit:
			switch c.typeOf(x).Underlying().(type) {
			case *types.Map:
				c.record(AllocMapLit, x.Pos(), inFailRet, "map literal allocates on the hot path")
			case *types.Slice:
				c.record(AllocSliceLit, x.Pos(), inFailRet, "slice literal allocates on the hot path")
			}
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := c.b.info.Types[x]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						c.record(AllocStrConcat, x.Pos(), inFailRet, "string concatenation allocates on the hot path")
					}
				}
			}
		case *ast.CallExpr:
			return c.checkCall(x, inFailRet)
		}
		return true
	})
}

func (c *allocWalker) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.b.info.Types[e]; ok && tv.Type != nil {
		return tv.Type
	}
	return types.Typ[types.Invalid]
}

// checkCall records banned-package calls, builtin allocators,
// non-scratch appends, and interface boxing at the call site. It
// reports whether the walk should descend into the call's children: a
// banned-package call is recorded once, without also flagging the
// constructs inside its arguments (fixing the call removes them too).
func (c *allocWalker) checkCall(call *ast.CallExpr, inFailRet bool) bool {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := c.b.info.Uses[id].(*types.PkgName); ok && BannedPackages[pn.Imported().Path()] {
				c.record(AllocBannedCall, call.Pos(), inFailRet,
					"call to %s.%s on the hot path: %s allocates (hoist into an unannotated cold helper)",
					pn.Imported().Path(), sel.Sel.Name, pn.Imported().Path())
				return false
			}
		}
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		switch id.Name {
		case "make":
			if c.isBuiltin(id) {
				c.record(AllocMake, call.Pos(), inFailRet, "make allocates on the hot path (reuse scratch storage instead)")
				return true
			}
		case "new":
			if c.isBuiltin(id) {
				c.record(AllocNew, call.Pos(), inFailRet, "new allocates on the hot path")
				return true
			}
		case "append":
			if c.isBuiltin(id) {
				c.checkAppend(call, inFailRet)
				return true
			}
		}
	}
	if tv, ok := c.b.info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, tv.Type, inFailRet)
		return true
	}
	c.checkArgBoxing(call, inFailRet)
	return true
}

func (c *allocWalker) isBuiltin(id *ast.Ident) bool {
	_, ok := c.b.info.Uses[id].(*types.Builtin)
	return ok
}

// checkAppend allows appends routed through caller/receiver-owned
// scratch and records the rest.
func (c *allocWalker) checkAppend(call *ast.CallExpr, inFailRet bool) {
	if len(call.Args) == 0 {
		return
	}
	base := call.Args[0]
	r := rootIdent(base)
	if r != nil {
		obj := c.b.info.Uses[r.id]
		if obj == nil {
			obj = c.b.info.Defs[r.id]
		}
		if obj != nil && c.derived[obj] {
			return
		}
	}
	c.record(AllocAppend, call.Pos(), inFailRet,
		"append to a non-scratch slice allocates per call on the hot path (append into receiver- or caller-owned storage)")
}

// checkConversion records T(x) conversions that box or copy.
func (c *allocWalker) checkConversion(call *ast.CallExpr, target types.Type, inFailRet bool) {
	if len(call.Args) != 1 {
		return
	}
	argT := c.typeOf(call.Args[0])
	if types.IsInterface(target.Underlying()) && !types.IsInterface(argT.Underlying()) && !isNil(call.Args[0]) {
		c.record(AllocConvBox, call.Pos(), inFailRet, "conversion boxes %s into %s on the hot path", argT, target)
		return
	}
	if b, ok := target.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
		if _, ok := argT.Underlying().(*types.Slice); ok {
			c.record(AllocStrConv, call.Pos(), inFailRet, "string conversion copies the byte slice on the hot path")
		}
	}
}

// checkArgBoxing records concrete values passed to interface
// parameters.
func (c *allocWalker) checkArgBoxing(call *ast.CallExpr, inFailRet bool) {
	sig, ok := c.typeOf(call.Fun).Underlying().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return // spreading an existing slice does not box per element
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := c.typeOf(arg)
		if types.IsInterface(pt.Underlying()) && !types.IsInterface(at.Underlying()) && !isNil(arg) {
			c.record(AllocArgBox, arg.Pos(), inFailRet, "argument boxes %s into interface parameter on the hot path", at)
		}
	}
}

func isNil(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

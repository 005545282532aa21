// Package summary builds lightweight per-function value/effect
// summaries — an SSA-lite substitute for golang.org/x/tools/go/ssa,
// small enough to stay stdlib-only. For every function (and every
// function literal, modeled as a pseudo-function of its parent) the
// builder records the effects the concurrency and hot-path analyzers
// reason about:
//
//   - mutex acquisitions and releases, in program order, with the set
//     of locks already held at each acquisition (the raw material of
//     the global lock-order graph)
//   - channel sends/receives/closes and sync.WaitGroup Add/Done/Wait,
//     each with the held-lock set and select-with-default context
//   - struct-field accesses eligible for sync/atomic, split into
//     atomic and plain loads/stores (torn-read detection)
//   - allocation effects, construct by construct (the hot-path
//     analyzer, hotpathinterproc, consumes these records)
//   - the static call graph: resolved callees, go/defer context,
//     failure-return context, and the held-lock set at the call site
//
// Identity is type-based: a mutex field is named by its owning defined
// type ("flowguard/internal/guard.Guard.mu"), so two instances of the
// same struct share a lock class — exactly the granularity a static
// acquisition-order analysis wants. Functions are keyed by
// types.Func.FullName, which is stable across packages and is what the
// analysis facts layer serializes.
package summary

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// FuncKey names a function globally ("flowguard/internal/guard.New",
// "(*flowguard/internal/guard.Guard).Check", parent key + "$litN" for
// function literals).
type FuncKey string

// LockClass identifies a mutex (or WaitGroup) by its owning defined
// type and field ("pkg/path.Type.field"), by package-level variable
// ("pkg/path.varname"), or — for shapes the resolver cannot name — by a
// function-local fallback that never aliases across functions.
type LockClass string

// HeldLock is one entry of a held-lock set: the class for graph
// identity plus the source expression for diagnostics ("g.mu").
type HeldLock struct {
	Class LockClass
	Expr  string
}

// LockUse is one Lock/RLock/Unlock/RUnlock call.
type LockUse struct {
	Class LockClass
	Expr  string
	Op    string // "Lock", "RLock", "Unlock", "RUnlock"
	Pos   token.Pos
}

// AcquireEdge records "To acquired while From was held" inside one
// function — one edge of the global acquisition-order graph.
type AcquireEdge struct {
	From, To         LockClass
	FromExpr, ToExpr string
	Pos              token.Pos
}

// Call is one call site.
type Call struct {
	// Callee is the resolved static callee ("" for dynamic calls
	// through function values or unresolvable interface methods).
	Callee FuncKey
	// Name renders the callee as written ("p.stall", "time.Sleep").
	Name string
	// Dynamic marks a call through a function value (callback, hook).
	Dynamic bool
	// Iface marks a call through an interface method (statically
	// named, dynamically dispatched).
	Iface bool
	// Go marks the call as the operand of a go statement.
	Go bool
	// Deferred marks a deferred call.
	Deferred bool
	// FailRet marks a call inside a return statement that also
	// returns a non-nil error (the sanctioned failure-exit shape).
	FailRet bool
	Held    []HeldLock
	Pos     token.Pos
}

// ChanOpKind classifies a channel operation.
type ChanOpKind int

const (
	ChanSend ChanOpKind = iota
	ChanRecv
	ChanClose
)

// ChanOp is one channel operation.
type ChanOp struct {
	Kind ChanOpKind
	// NonBlocking marks operations inside a select that has a default
	// clause — they cannot block.
	NonBlocking bool
	Held        []HeldLock
	// Local indexes Func.LocalChans when the channel is a local made
	// in this function (or its parent, for literals); -1 otherwise.
	Local int
	Pos   token.Pos
}

// WGOp is one sync.WaitGroup Add/Done/Wait call.
type WGOp struct {
	Class LockClass
	Expr  string
	Kind  string // "Add", "Done", "Wait"
	// Delta is Add's argument when constant, -1 when not statically
	// known (Done is recorded as Delta 1).
	Delta int64
	Held  []HeldLock
	Pos   token.Pos
}

// LocalChan tracks a channel made inside a function: lifecycle
// analyzers check that sends on it can complete.
type LocalChan struct {
	Name       string
	Unbuffered bool
	// Escapes is set when the channel value leaves the function (call
	// argument, return value, store into a field/global/composite):
	// unseen code may receive from it.
	Escapes              bool
	Sends, Recvs, Closes int
	// NonBlockingSends counts sends guarded by select-with-default.
	NonBlockingSends int
	FirstSend        token.Pos
}

// FieldKey names a struct field by its owning defined type.
type FieldKey struct {
	Type  string // "flowguard/internal/kernelsim.Kernel"
	Field string
}

func (k FieldKey) String() string { return k.Type + "." + k.Field }

// FieldAccess is one access to an atomic-eligible struct field
// (integer/uintptr kinds sync/atomic can operate on).
type FieldAccess struct {
	Key    FieldKey
	Expr   string
	Atomic bool
	Write  bool
	Pos    token.Pos
}

// AllocKind classifies an allocation effect.
type AllocKind int

const (
	AllocBannedCall AllocKind = iota
	AllocClosure
	AllocMapLit
	AllocSliceLit
	AllocStrConcat
	AllocMake
	AllocNew
	AllocAppend
	AllocConvBox
	AllocStrConv
	AllocArgBox
)

// Alloc is one allocation-forcing construct. Msg carries the rendered
// diagnostic the hot-path analyzer reports for it.
type Alloc struct {
	Kind AllocKind
	Msg  string
	// FailRet marks constructs inside a return statement that also
	// returns a non-nil error — exempt on hot paths.
	FailRet bool
	Pos     token.Pos
}

// LockCopy records a lock-containing value copied into a go statement.
type LockCopy struct {
	Type string
	Pos  token.Pos
}

// Func is one function's (or function literal's) summary.
type Func struct {
	Key  FuncKey
	Name string // display name: "Check", "(*Guard).Check", "worker$1"
	Pos  token.Pos

	// Hot marks a //fg:hotpath doc annotation; Cold marks //fg:cold.
	Hot           bool
	Cold          bool
	ColdReason    string
	ColdMalformed bool

	// Lit marks a pseudo-function built from a function literal;
	// Parent is its enclosing function.
	Lit    bool
	Parent FuncKey

	Acquires     []LockUse
	AcquireEdges []AcquireEdge
	Calls        []Call
	Chans        []ChanOp
	WaitGroups   []WGOp
	LocalChans   []*LocalChan
	Fields       []FieldAccess
	Allocs       []Alloc
	GoLockCopies []LockCopy

	// Constructs lists the defined types this function builds with a
	// composite literal or new() — the constructor-shape exemption
	// for plain initialization of atomically-accessed fields.
	Constructs map[string]bool
}

// Package is the summary of one package: every function keyed and in
// stable declaration order, forming the intra-package callgraph via
// Func.Calls.
type Package struct {
	Path  string
	Funcs map[FuncKey]*Func
	Order []FuncKey
}

// Markers recognized on function doc comments.
const (
	HotMarker  = "fg:hotpath"
	ColdMarker = "fg:cold"
)

// docMarker returns the text after the marker on the matching doc
// line, or nil when absent. An empty remainder returns a non-nil empty
// slice-backed string pointer so presence and emptiness are separable.
func docMarker(doc *ast.CommentGroup, marker string) *string {
	if doc == nil {
		return nil
	}
	for _, c := range doc.List {
		t := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
		t = strings.TrimSpace(t)
		if rest, ok := strings.CutPrefix(t, marker); ok {
			if rest == "" || rest[0] == ' ' || rest[0] == '\t' {
				r := strings.TrimSpace(rest)
				return &r
			}
		}
	}
	return nil
}

// Build summarizes one type-checked package.
func Build(path string, fset *token.FileSet, files []*ast.File, info *types.Info) *Package {
	p := &Package{Path: path, Funcs: make(map[FuncKey]*Func)}
	b := &builder{pkgPath: path, fset: fset, info: info, pkg: p}
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			b.buildDecl(fd)
		}
	}
	return p
}

type builder struct {
	pkgPath string
	fset    *token.FileSet
	info    *types.Info
	pkg     *Package
}

// buildDecl summarizes one top-level function declaration.
func (b *builder) buildDecl(fd *ast.FuncDecl) {
	obj, _ := b.info.Defs[fd.Name].(*types.Func)
	if obj == nil {
		return
	}
	fn := &Func{
		Key:        FuncKey(obj.FullName()),
		Name:       displayName(fd),
		Pos:        fd.Pos(),
		Hot:        docMarker(fd.Doc, HotMarker) != nil,
		Constructs: map[string]bool{},
	}
	if cold := docMarker(fd.Doc, ColdMarker); cold != nil {
		fn.Cold = true
		fn.ColdReason = *cold
		fn.ColdMalformed = *cold == ""
	}
	b.register(fn)
	u := &unit{b: b, fn: fn, held: nil, chans: map[types.Object]*LocalChan{}, fieldSeen: map[fieldSeenKey]bool{}}
	u.failRets = failureReturns(b.info, fd.Body)
	u.walkStmt(fd.Body)
	u.markFailRetCalls()
	b.buildAllocs(fn, fd.Recv, fd.Type, fd.Body)
}

func (b *builder) register(fn *Func) {
	b.pkg.Funcs[fn.Key] = fn
	b.pkg.Order = append(b.pkg.Order, fn.Key)
}

// displayName renders a declaration for diagnostics.
func displayName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + types.ExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

// failRange is the span of a failure-exit return statement.
type failRange struct{ lo, hi token.Pos }

// failureReturns finds return statements whose results include a
// non-nil expression of type error — hot-path constructs inside them
// are exempt, and so are calls (the process is abandoning the path).
func failureReturns(info *types.Info, body *ast.BlockStmt) []failRange {
	var out []failRange
	ast.Inspect(body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if returnsError(info, ret) {
			out = append(out, failRange{ret.Pos(), ret.End()})
		}
		return true
	})
	return out
}

// returnsError reports whether the return's results include a non-nil
// error-typed expression.
func returnsError(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if id, ok := r.(*ast.Ident); ok && id.Name == "nil" {
			continue
		}
		tv, ok := info.Types[r]
		if !ok {
			continue
		}
		if named, ok := tv.Type.(*types.Named); ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
			return true
		}
	}
	return false
}

type fieldSeenKey struct {
	key    FieldKey
	atomic bool
	write  bool
}

// unit walks one function body, tracking the held-lock set linearly
// (branches are walked in sequence, a discipline approximation —
// defer x.Unlock() pins the lock to function end).
type unit struct {
	b    *builder
	fn   *Func
	held []HeldLock
	// chans maps local channel variables (made in this function) to
	// their lifecycle records. Literal units inherit the parent's map
	// so goroutine bodies count toward the declaring function.
	chans     map[types.Object]*LocalChan
	fieldSeen map[fieldSeenKey]bool
	failRets  []failRange
	lits      int
	// selDefault is set while walking the comm clauses of a select
	// that has a default case.
	selDefault bool
}

func (u *unit) heldCopy() []HeldLock {
	if len(u.held) == 0 {
		return nil
	}
	out := make([]HeldLock, len(u.held))
	copy(out, u.held)
	return out
}

func (u *unit) inFailRet(pos token.Pos) bool {
	for _, r := range u.failRets {
		if pos >= r.lo && pos <= r.hi {
			return true
		}
	}
	return false
}

// markFailRetCalls stamps FailRet on calls recorded inside failure
// returns (computed after the walk so the walker stays context-free).
func (u *unit) markFailRetCalls() {
	for i := range u.fn.Calls {
		if u.inFailRet(u.fn.Calls[i].Pos) {
			u.fn.Calls[i].FailRet = true
		}
	}
}

// --- statement walk ---

func (u *unit) walkStmts(list []ast.Stmt) {
	for _, s := range list {
		u.walkStmt(s)
	}
}

func (u *unit) walkStmt(s ast.Stmt) {
	switch x := s.(type) {
	case nil:
	case *ast.BlockStmt:
		u.walkStmts(x.List)
	case *ast.ExprStmt:
		u.walkExpr(x.X, false)
	case *ast.SendStmt:
		u.recordChanOp(ChanSend, x.Chan, x.Pos())
		u.walkChanExpr(x.Chan)
		u.walkExpr(x.Value, false)
	case *ast.AssignStmt:
		u.walkAssign(x)
	case *ast.IncDecStmt:
		u.walkExpr(x.X, true)
	case *ast.GoStmt:
		u.walkGo(x)
	case *ast.DeferStmt:
		u.walkDefer(x)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			u.walkExpr(r, false)
		}
	case *ast.IfStmt:
		u.walkStmt(x.Init)
		u.walkExpr(x.Cond, false)
		u.walkStmt(x.Body)
		u.walkStmt(x.Else)
	case *ast.ForStmt:
		u.walkStmt(x.Init)
		if x.Cond != nil {
			u.walkExpr(x.Cond, false)
		}
		u.walkStmt(x.Post)
		u.walkStmt(x.Body)
	case *ast.RangeStmt:
		if tv, ok := u.b.info.Types[x.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				u.recordChanOp(ChanRecv, x.X, x.Pos())
			}
		}
		u.walkChanExpr(x.X)
		u.walkStmt(x.Body)
	case *ast.SelectStmt:
		u.walkSelect(x)
	case *ast.SwitchStmt:
		u.walkStmt(x.Init)
		if x.Tag != nil {
			u.walkExpr(x.Tag, false)
		}
		u.walkStmt(x.Body)
	case *ast.TypeSwitchStmt:
		u.walkStmt(x.Init)
		u.walkStmt(x.Assign)
		u.walkStmt(x.Body)
	case *ast.CaseClause:
		for _, e := range x.List {
			u.walkExpr(e, false)
		}
		u.walkStmts(x.Body)
	case *ast.CommClause:
		u.walkStmt(x.Comm)
		u.walkStmts(x.Body)
	case *ast.LabeledStmt:
		u.walkStmt(x.Stmt)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					u.registerChanDecl(vs.Names, vs.Values)
					for _, v := range vs.Values {
						u.walkExpr(v, false)
					}
				}
			}
		}
	}
}

func (u *unit) walkSelect(x *ast.SelectStmt) {
	hasDefault := false
	for _, c := range x.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			hasDefault = true
		}
	}
	for _, c := range x.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		prev := u.selDefault
		u.selDefault = hasDefault
		u.walkStmt(cc.Comm)
		u.selDefault = prev
		u.walkStmts(cc.Body)
	}
}

func (u *unit) walkAssign(x *ast.AssignStmt) {
	if x.Tok == token.DEFINE {
		u.registerChanAssign(x)
	}
	for _, l := range x.Lhs {
		if id, ok := l.(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		u.walkExpr(l, true)
	}
	for _, r := range x.Rhs {
		u.walkExpr(r, false)
	}
}

// walkGo models the go statement: lock-copy detection on the
// arguments, a spawned Call edge, and the literal body (if any) as a
// pseudo-function of its own.
func (u *unit) walkGo(x *ast.GoStmt) {
	for _, arg := range x.Call.Args {
		if tv, ok := u.b.info.Types[arg]; ok && containsMutex(tv.Type, map[types.Type]bool{}) {
			u.fn.GoLockCopies = append(u.fn.GoLockCopies, LockCopy{Type: tv.Type.String(), Pos: arg.Pos()})
		}
		u.walkExpr(arg, false)
	}
	u.recordCallShape(x.Call, true, false)
}

func (u *unit) walkDefer(x *ast.DeferStmt) {
	// defer x.Unlock(): the lock is held to function end — leave it
	// in the held set for the rest of the walk.
	if _, _, op, ok := u.b.lockCall(x.Call); ok && (op == "Unlock" || op == "RUnlock") {
		return
	}
	// defer wg.Done() / defer close(ch): the canonical forms — record
	// the op itself, not just an opaque call.
	if wg, ok := u.b.wgCall(x.Call); ok {
		wg.Held = u.heldCopy()
		u.fn.WaitGroups = append(u.fn.WaitGroups, *wg)
		return
	}
	if id, ok := ast.Unparen(x.Call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := u.b.info.Uses[id].(*types.Builtin); isBuiltin && len(x.Call.Args) == 1 {
			u.recordChanOp(ChanClose, x.Call.Args[0], x.Call.Pos())
			u.walkChanExpr(x.Call.Args[0])
			return
		}
	}
	for _, arg := range x.Call.Args {
		u.walkExpr(arg, false)
	}
	u.recordCallShape(x.Call, false, true)
}

// recordCallShape records a go/deferred call without re-walking its
// arguments: literals become pseudo-functions, everything else a Call.
func (u *unit) recordCallShape(call *ast.CallExpr, isGo, isDefer bool) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		key := u.buildLit(lit)
		u.fn.Calls = append(u.fn.Calls, Call{
			Callee: key, Name: string(key), Go: isGo, Deferred: isDefer,
			Held: u.heldCopy(), Pos: call.Pos(),
		})
		return
	}
	u.recordCall(call, isGo, isDefer)
	u.walkExpr(call.Fun, false)
}

// --- expression walk ---

// walkChanExpr walks a channel-operand expression without counting the
// use as an escape.
func (u *unit) walkChanExpr(e ast.Expr) {
	if _, ok := ast.Unparen(e).(*ast.Ident); ok {
		return // the op itself was recorded; a bare ident is no escape
	}
	u.walkExpr(e, false)
}

func (u *unit) walkExpr(e ast.Expr, write bool) {
	switch x := e.(type) {
	case nil:
	case *ast.Ident:
		// Only a *use* of a tracked channel counts as an escape — the
		// defining ident in `ch := make(chan T)` is not a leak.
		if obj := u.b.info.Uses[x]; obj != nil {
			if lc := u.chans[obj]; lc != nil {
				lc.Escapes = true
			}
		}
	case *ast.ParenExpr:
		u.walkExpr(x.X, write)
	case *ast.SelectorExpr:
		u.recordFieldAccess(x, write, false)
		u.walkExpr(x.X, false)
	case *ast.StarExpr:
		u.walkExpr(x.X, write)
	case *ast.UnaryExpr:
		switch x.Op {
		case token.ARROW:
			u.recordChanOp(ChanRecv, x.X, x.Pos())
			u.walkChanExpr(x.X)
		case token.AND:
			// &x.f: address taken — treated as a (potential) write.
			if sel, ok := ast.Unparen(x.X).(*ast.SelectorExpr); ok {
				u.recordFieldAccess(sel, true, false)
				u.walkExpr(sel.X, false)
			} else {
				u.walkExpr(x.X, false)
			}
		default:
			u.walkExpr(x.X, write)
		}
	case *ast.BinaryExpr:
		u.walkExpr(x.X, false)
		u.walkExpr(x.Y, false)
	case *ast.IndexExpr:
		u.walkExpr(x.X, write)
		u.walkExpr(x.Index, false)
	case *ast.SliceExpr:
		u.walkExpr(x.X, write)
		u.walkExpr(x.Low, false)
		u.walkExpr(x.High, false)
		u.walkExpr(x.Max, false)
	case *ast.TypeAssertExpr:
		u.walkExpr(x.X, false)
	case *ast.KeyValueExpr:
		u.walkExpr(x.Value, false)
	case *ast.CompositeLit:
		u.recordConstruct(x)
		for _, el := range x.Elts {
			u.walkExpr(el, false)
		}
	case *ast.FuncLit:
		key := u.buildLit(x)
		u.fn.Calls = append(u.fn.Calls, Call{
			Callee: key, Name: string(key), Held: u.heldCopy(), Pos: x.Pos(),
		})
	case *ast.CallExpr:
		u.walkCall(x)
	}
}

// walkCall classifies one call expression and walks its operands.
func (u *unit) walkCall(call *ast.CallExpr) {
	// Lock/Unlock on a mutex: update the held set.
	if class, expr, op, ok := u.b.lockCall(call); ok {
		u.fn.Acquires = append(u.fn.Acquires, LockUse{Class: class, Expr: expr, Op: op, Pos: call.Pos()})
		switch op {
		case "Lock", "RLock":
			for _, h := range u.held {
				if h.Class != class {
					u.fn.AcquireEdges = append(u.fn.AcquireEdges, AcquireEdge{
						From: h.Class, To: class, FromExpr: h.Expr, ToExpr: expr, Pos: call.Pos(),
					})
				}
			}
			u.held = append(u.held, HeldLock{Class: class, Expr: expr})
		case "Unlock", "RUnlock":
			for i := len(u.held) - 1; i >= 0; i-- {
				if u.held[i].Expr == expr {
					u.held = append(u.held[:i], u.held[i+1:]...)
					break
				}
			}
		}
		return
	}
	// WaitGroup ops.
	if wg, ok := u.b.wgCall(call); ok {
		wg.Held = u.heldCopy()
		u.fn.WaitGroups = append(u.fn.WaitGroups, *wg)
		for _, arg := range call.Args {
			u.walkExpr(arg, false)
		}
		return
	}
	// sync/atomic calls on struct fields.
	if u.recordAtomicCall(call) {
		return
	}
	// close(ch).
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "close" {
		if _, isBuiltin := u.b.info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) == 1 {
			u.recordChanOp(ChanClose, call.Args[0], call.Pos())
			u.walkChanExpr(call.Args[0])
			return
		}
	}
	// Immediately-invoked literal: func(){...}().
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		key := u.buildLit(lit)
		u.fn.Calls = append(u.fn.Calls, Call{Callee: key, Name: string(key), Held: u.heldCopy(), Pos: call.Pos()})
		for _, arg := range call.Args {
			u.walkExpr(arg, false)
		}
		return
	}
	u.recordCall(call, false, false)
	u.walkExpr(call.Fun, false)
	for _, arg := range call.Args {
		u.walkExpr(arg, false)
	}
}

// recordCall resolves the callee and appends a Call (skipping builtins
// and type conversions, which are not call edges).
func (u *unit) recordCall(call *ast.CallExpr, isGo, isDefer bool) {
	if tv, ok := u.b.info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = u.b.info.Uses[fun]
	case *ast.SelectorExpr:
		obj = u.b.info.Uses[fun.Sel]
	}
	c := Call{Name: types.ExprString(call.Fun), Go: isGo, Deferred: isDefer, Held: u.heldCopy(), Pos: call.Pos()}
	switch o := obj.(type) {
	case *types.Builtin:
		return
	case *types.Func:
		c.Callee = FuncKey(o.FullName())
		if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
			if types.IsInterface(sig.Recv().Type()) {
				c.Iface = true
				c.Callee = "" // dynamically dispatched: no static edge
			}
		}
	case *types.Var:
		if _, isSig := o.Type().Underlying().(*types.Signature); isSig {
			c.Dynamic = true
		} else {
			return
		}
	default:
		// Unresolved shape (method value call, etc.): treat as dynamic
		// only if it is a function-typed expression.
		if tv, ok := u.b.info.Types[call.Fun]; ok {
			if _, isSig := tv.Type.Underlying().(*types.Signature); isSig {
				c.Dynamic = true
			} else {
				return
			}
		} else {
			return
		}
	}
	u.fn.Calls = append(u.fn.Calls, c)
}

// buildLit summarizes a function literal as a pseudo-function. The
// literal shares the parent's local-channel map (a goroutine body's
// sends count toward the declaring function) but starts with an empty
// held-lock set: it runs later, outside the creation-site region.
func (u *unit) buildLit(lit *ast.FuncLit) FuncKey {
	u.lits++
	key := FuncKey(string(u.fn.Key) + "$" + itoa(u.lits))
	fn := &Func{
		Key: key, Name: u.fn.Name + "$" + itoa(u.lits), Pos: lit.Pos(),
		Lit: true, Parent: u.fn.Key, Constructs: map[string]bool{},
	}
	u.b.register(fn)
	lu := &unit{b: u.b, fn: fn, chans: u.chans, fieldSeen: map[fieldSeenKey]bool{}}
	lu.failRets = failureReturns(u.b.info, lit.Body)
	lu.walkStmt(lit.Body)
	lu.markFailRetCalls()
	u.b.buildAllocs(fn, nil, lit.Type, lit.Body)
	return key
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// --- channel helpers ---

func (u *unit) localChan(id *ast.Ident) *LocalChan {
	obj := u.b.info.Uses[id]
	if obj == nil {
		obj = u.b.info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	return u.chans[obj]
}

func (u *unit) registerChanAssign(x *ast.AssignStmt) {
	if len(x.Lhs) != len(x.Rhs) {
		return
	}
	for i, l := range x.Lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		u.registerChanMake(id, x.Rhs[i])
	}
}

func (u *unit) registerChanDecl(names []*ast.Ident, values []ast.Expr) {
	if len(names) != len(values) {
		return
	}
	for i, id := range names {
		u.registerChanMake(id, values[i])
	}
}

// registerChanMake tracks `ch := make(chan T[, n])`.
func (u *unit) registerChanMake(id *ast.Ident, rhs ast.Expr) {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	fid, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fid.Name != "make" {
		return
	}
	if _, isBuiltin := u.b.info.Uses[fid].(*types.Builtin); !isBuiltin || len(call.Args) == 0 {
		return
	}
	tv, ok := u.b.info.Types[call]
	if !ok {
		return
	}
	if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return
	}
	obj := u.b.info.Defs[id]
	if obj == nil {
		return
	}
	unbuffered := true
	if len(call.Args) >= 2 {
		if ctv, ok := u.b.info.Types[call.Args[1]]; ok && ctv.Value != nil {
			if v, exact := constant.Int64Val(ctv.Value); exact && v > 0 {
				unbuffered = false
			}
		} else {
			unbuffered = false // non-constant capacity: assume buffered
		}
	}
	lc := &LocalChan{Name: id.Name, Unbuffered: unbuffered}
	u.chans[obj] = lc
	u.fn.LocalChans = append(u.fn.LocalChans, lc)
}

func (u *unit) recordChanOp(kind ChanOpKind, ch ast.Expr, pos token.Pos) {
	op := ChanOp{Kind: kind, NonBlocking: u.selDefault, Held: u.heldCopy(), Local: -1, Pos: pos}
	if id, ok := ast.Unparen(ch).(*ast.Ident); ok {
		if lc := u.localChan(id); lc != nil {
			for i, c := range u.fn.LocalChans {
				if c == lc {
					op.Local = i
					break
				}
			}
			switch kind {
			case ChanSend:
				lc.Sends++
				if u.selDefault {
					lc.NonBlockingSends++
				}
				if lc.FirstSend == token.NoPos {
					lc.FirstSend = pos
				}
			case ChanRecv:
				lc.Recvs++
			case ChanClose:
				lc.Closes++
			}
		}
	}
	u.fn.Chans = append(u.fn.Chans, op)
}

// --- lock/waitgroup resolution ---

// lockCall classifies call as Lock/RLock/Unlock/RUnlock on a
// sync.Mutex/RWMutex value and resolves its class.
func (b *builder) lockCall(call *ast.CallExpr) (class LockClass, expr, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", "", "", false
	}
	tv, found := b.info.Types[sel.X]
	if !found || !mutexType(tv.Type) {
		return "", "", "", false
	}
	return b.lockClassOf(sel.X), types.ExprString(sel.X), sel.Sel.Name, true
}

// wgCall classifies Add/Done/Wait on a sync.WaitGroup.
func (b *builder) wgCall(call *ast.CallExpr) (*WGOp, bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, false
	}
	switch sel.Sel.Name {
	case "Add", "Done", "Wait":
	default:
		return nil, false
	}
	tv, found := b.info.Types[sel.X]
	if !found || !namedSyncType(tv.Type, "WaitGroup") {
		return nil, false
	}
	op := &WGOp{
		Class: b.lockClassOf(sel.X), Expr: types.ExprString(sel.X),
		Kind: sel.Sel.Name, Delta: -1, Pos: call.Pos(),
	}
	switch sel.Sel.Name {
	case "Done":
		op.Delta = 1
	case "Add":
		if len(call.Args) == 1 {
			if atv, ok := b.info.Types[call.Args[0]]; ok && atv.Value != nil {
				if v, exact := constant.Int64Val(atv.Value); exact {
					op.Delta = v
				}
			}
		}
	}
	return op, true
}

// lockClassOf names the mutex/waitgroup value's class: owning defined
// type + field for struct fields, package path + name for package-level
// variables, a function-local fallback otherwise.
func (b *builder) lockClassOf(e ast.Expr) LockClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			recv := sel.Recv()
			if p, ok := recv.(*types.Pointer); ok {
				recv = p.Elem()
			}
			if named, ok := recv.(*types.Named); ok && named.Obj().Pkg() != nil {
				return LockClass(named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + x.Sel.Name)
			}
		}
		// Package-qualified variable: pkg.mu.
		if obj, ok := b.info.Uses[x.Sel].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return LockClass(obj.Pkg().Path() + "." + obj.Name())
		}
	case *ast.Ident:
		if obj, ok := b.info.Uses[x].(*types.Var); ok && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return LockClass(obj.Pkg().Path() + "." + obj.Name())
		}
	}
	return LockClass(b.pkgPath + "#local:" + types.ExprString(e))
}

// mutexType reports whether t is sync.Mutex or sync.RWMutex (possibly
// behind a pointer).
func mutexType(t types.Type) bool {
	return namedSyncType(t, "Mutex") || namedSyncType(t, "RWMutex")
}

func namedSyncType(t types.Type, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "sync" {
		return false
	}
	return n.Obj().Name() == name
}

// containsMutex reports whether copying a value of type t copies a
// mutex.
func containsMutex(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if mutexType(t) {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if containsMutex(u.Field(i).Type(), seen) {
				return true
			}
		}
	case *types.Array:
		return containsMutex(u.Elem(), seen)
	}
	return false
}

// --- atomic/plain field accesses ---

// atomicFns maps sync/atomic function names to whether they write.
var atomicFns = map[string]bool{
	"LoadInt32": false, "LoadInt64": false, "LoadUint32": false,
	"LoadUint64": false, "LoadUintptr": false, "LoadPointer": false,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true,
	"StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"AddInt32": true, "AddInt64": true, "AddUint32": true,
	"AddUint64": true, "AddUintptr": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true,
	"SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// recordAtomicCall records atomic.Xxx(&s.f, ...) as an atomic field
// access and reports whether the call was one.
func (u *unit) recordAtomicCall(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	write, known := atomicFns[sel.Sel.Name]
	if !known {
		return false
	}
	pkgID, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := u.b.info.Uses[pkgID].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	if len(call.Args) > 0 {
		if un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr); ok && un.Op == token.AND {
			if fsel, ok := ast.Unparen(un.X).(*ast.SelectorExpr); ok {
				u.recordFieldAccess(fsel, write, true)
				u.walkExpr(fsel.X, false)
			}
		}
	}
	for _, arg := range call.Args[min(1, len(call.Args)):] {
		u.walkExpr(arg, false)
	}
	return true
}

// recordFieldAccess records a struct-field access when the field's
// type is atomic-eligible, deduplicated per (field, atomic, write).
func (u *unit) recordFieldAccess(sel *ast.SelectorExpr, write, atomic bool) {
	selection, ok := u.b.info.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return
	}
	fieldObj := selection.Obj()
	if !atomicEligible(fieldObj.Type()) {
		return
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return
	}
	key := FieldKey{Type: named.Obj().Pkg().Path() + "." + named.Obj().Name(), Field: sel.Sel.Name}
	sk := fieldSeenKey{key: key, atomic: atomic, write: write}
	if u.fieldSeen[sk] {
		return
	}
	u.fieldSeen[sk] = true
	u.fn.Fields = append(u.fn.Fields, FieldAccess{
		Key: key, Expr: types.ExprString(sel), Atomic: atomic, Write: write, Pos: sel.Pos(),
	})
}

// atomicEligible reports whether sync/atomic has functions operating
// on the field's kind.
func atomicEligible(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int32, types.Int64, types.Uint32, types.Uint64, types.Uintptr, types.UnsafePointer:
		return true
	}
	return false
}

// recordConstruct notes composite literals of defined struct types —
// the constructor-shape evidence atomicfield's exemption consults.
func (u *unit) recordConstruct(cl *ast.CompositeLit) {
	tv, ok := u.b.info.Types[cl]
	if !ok {
		return
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil {
		if _, isStruct := named.Underlying().(*types.Struct); isStruct {
			u.fn.Constructs[named.Obj().Pkg().Path()+"."+named.Obj().Name()] = true
		}
	}
}

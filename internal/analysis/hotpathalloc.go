package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAllocAnalyzer enforces the //wikisearch:hotpath contract: an
// annotated function, and everything it statically calls, must be free of
// allocating constructs. The warm search path (flat kernel, Pool dispatch,
// Bitset/ByteArray accessors) is guarded dynamically by AllocsPerRun tests,
// but those only exercise the paths a benchmark happens to hit; this
// analyzer covers every branch.
//
// Flagged constructs: make/new, map and slice literals, &composite{},
// non-self append (x = append(x, ...) is allowed — amortized by the
// steady-state guards), go statements, variable-capturing closures, method
// values, map writes, string concatenation and string<->[]byte conversions,
// interface boxing (arguments, assignments, returns, conversions),
// non-spread variadic calls, and calls to functions whose body the walk
// cannot see and that are not on the allowlist (sync/atomic, math, math/bits,
// mutex lock/unlock, slices.Sort, runtime.Gosched/GOMAXPROCS).
//
// //wikisearch:coldpath on a callee stops the walk (slow branch, documented
// as such); //wikisearch:allocok on the offending line suppresses a single
// finding.
var HotPathAllocAnalyzer = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "hotpath-annotated functions must be transitively allocation-free",
	Run:  runHotPathAlloc,
}

// allowedCalls are bodyless (stdlib) functions trusted not to allocate.
var allowedCalls = map[string]bool{
	"sync.Mutex.Lock":      true,
	"sync.Mutex.Unlock":    true,
	"sync.Mutex.TryLock":   true,
	"sync.RWMutex.Lock":    true,
	"sync.RWMutex.Unlock":  true,
	"sync.RWMutex.RLock":   true,
	"sync.RWMutex.RUnlock": true,
	"sync.Once.Do":         true,
	"sync.WaitGroup.Add":   true,
	"sync.WaitGroup.Done":  true,
	"sync.WaitGroup.Wait":  true,
	"slices..Sort":         true,
	"runtime..Gosched":     true,
	"runtime..GOMAXPROCS":  true,
	// The trace clock: monotonic reads, no allocation.
	"time..Now":   true,
	"time..Since": true,
}

// allowedCallPkgs are whole packages trusted not to allocate.
var allowedCallPkgs = map[string]bool{
	"sync/atomic": true,
	"math/bits":   true,
	"math":        true, // pure float functions (the score's Pow)
}

func runHotPathAlloc(pass *Pass) {
	c := &hotChecker{pass: pass, ix: pass.Prog.Index, checked: map[string]bool{}}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fi := c.ix.ByDecl[fd]
			if fi == nil || !fi.Directives["hotpath"] {
				continue
			}
			c.scan(fi, true)
		}
	}
}

type hotChecker struct {
	pass    *Pass
	ix      *Index
	checked map[string]bool // function keys already scanned this pass
}

// report files a finding unless the line carries //wikisearch:allocok.
func (c *hotChecker) report(pos token.Pos, format string, args ...any) {
	if c.ix.AllocOK(c.pass.Prog.Fset, pos) {
		return
	}
	c.pass.Reportf(pos, format, args...)
}

// displayName renders a FuncInfo as Recv.Name or Name.
func displayName(fi *FuncInfo) string {
	recv := recvBaseName(fi.Decl)
	if recv != "" {
		return recv + "." + fi.Decl.Name.Name
	}
	return fi.Decl.Name.Name
}

// funcDisplay renders a types.Func for a message (pkg.Name or Type.Name).
func funcDisplay(f *types.Func) string {
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := types.Unalias(sig.Recv().Type())
		if p, ok := t.(*types.Pointer); ok {
			t = types.Unalias(p.Elem())
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + f.Name()
		}
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// scan walks one function body for allocating constructs, descending into
// statically-resolved module-internal callees.
func (c *hotChecker) scan(fi *FuncInfo, root bool) {
	if c.checked[fi.Key] {
		return
	}
	c.checked[fi.Key] = true
	where := fmt.Sprintf("hot path function %s", displayName(fi))
	if !root {
		where = fmt.Sprintf("function %s (reachable from hot path)", displayName(fi))
	}
	info := fi.Pkg.Info
	var rootSig *types.Signature
	if def, ok := info.Defs[fi.Decl.Name].(*types.Func); ok {
		rootSig, _ = def.Type().(*types.Signature)
	}
	inspectWithStack(fi.Decl.Body, func(n ast.Node, stack []ast.Node) {
		switch e := n.(type) {
		case *ast.CallExpr:
			c.checkCall(fi, e, stack, where)
		case *ast.CompositeLit:
			switch types.Unalias(info.Types[e].Type).Underlying().(type) {
			case *types.Map:
				c.report(e.Pos(), "%s: map literal allocates", where)
			case *types.Slice:
				c.report(e.Pos(), "%s: slice literal allocates", where)
			}
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
					c.report(e.Pos(), "%s: &composite literal allocates", where)
				}
			}
		case *ast.GoStmt:
			c.report(e.Pos(), "%s: go statement allocates", where)
		case *ast.FuncLit:
			if capt := capturedVar(info, fi.Pkg, e); capt != "" {
				c.report(e.Pos(), "%s: closure captures %s and allocates", where, capt)
			}
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[e]; ok && sel.Kind() == types.MethodVal {
				if parent, ok := parentOf(stack).(*ast.CallExpr); !ok || ast.Unparen(parent.Fun) != e {
					c.report(e.Pos(), "%s: method value allocates", where)
				}
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isStringType(info, e) && info.Types[e].Value == nil {
				c.report(e.Pos(), "%s: string concatenation allocates", where)
			}
		case *ast.AssignStmt:
			c.checkAssign(info, e, where)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				c.report(e.Pos(), "%s: map write may allocate", where)
			}
		case *ast.ReturnStmt:
			c.checkReturn(info, rootSig, e, stack, where)
		}
	})
}

// checkAssign flags map writes, string +=, and interface boxing on
// assignment.
func (c *hotChecker) checkAssign(info *types.Info, st *ast.AssignStmt, where string) {
	for _, lhs := range st.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			c.report(lhs.Pos(), "%s: map write may allocate", where)
		}
	}
	if st.Tok == token.ADD_ASSIGN && len(st.Lhs) == 1 && isStringType(info, st.Lhs[0]) {
		c.report(st.Pos(), "%s: string concatenation allocates", where)
	}
	if len(st.Lhs) != len(st.Rhs) {
		return
	}
	for i, lhs := range st.Lhs {
		var lt types.Type
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && st.Tok == token.DEFINE {
			if obj := info.Defs[id]; obj != nil {
				lt = obj.Type()
			}
		} else if tv, ok := info.Types[lhs]; ok {
			lt = tv.Type
		}
		c.checkBoxing(info, lt, st.Rhs[i], where)
	}
}

// checkReturn flags interface boxing at return sites, using the nearest
// enclosing function literal's signature (or the root declaration's).
func (c *hotChecker) checkReturn(info *types.Info, rootSig *types.Signature, ret *ast.ReturnStmt, stack []ast.Node, where string) {
	sig := rootSig
	for i := len(stack) - 2; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			if s, ok := types.Unalias(info.Types[lit].Type).(*types.Signature); ok {
				sig = s
			}
			break
		}
	}
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		c.checkBoxing(info, sig.Results().At(i).Type(), res, where)
	}
}

// checkCall handles builtins, conversions, allowlisting, descent into
// module-internal callees, and boxing/variadic allocation at the call site.
func (c *hotChecker) checkCall(fi *FuncInfo, call *ast.CallExpr, stack []ast.Node, where string) {
	info := fi.Pkg.Info
	// Type conversions.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(info, tv.Type, call, where)
		return
	}
	// Builtins.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				c.report(call.Pos(), "%s: make allocates", where)
			case "new":
				c.report(call.Pos(), "%s: new allocates", where)
			case "append":
				if !isSelfAppend(call, stack) {
					c.report(call.Pos(), "%s: append may reallocate; only x = append(x, ...) is allowed", where)
				}
			case "print", "println":
				c.report(call.Pos(), "%s: %s allocates", where, b.Name())
			}
			return
		}
	}
	f := calleeOf(info, call)
	if f == nil {
		// Dynamic call through a function value: the target is unknown, but
		// boxing and variadic allocation at this site are still visible.
		c.checkCallSite(info, call, where)
		return
	}
	if f.Pkg() != nil && allowedCallPkgs[f.Pkg().Path()] {
		return
	}
	key := keyOf(f)
	if allowedCalls[key] {
		return
	}
	if isInterfaceMethod(f) {
		c.checkCallSite(info, call, where)
		return
	}
	callee := c.ix.Funcs[key]
	if callee == nil || callee.Decl.Body == nil {
		c.report(call.Pos(), "%s: call to %s is not allowlisted as allocation-free", where, funcDisplay(f))
		return
	}
	if !callee.Directives["hotpath"] && !callee.Directives["coldpath"] {
		c.scan(callee, false)
	}
	c.checkCallSite(info, call, where)
}

// checkCallSite flags variadic-slice and argument-boxing allocation for a
// call whose target is trusted or separately scanned.
func (c *hotChecker) checkCallSite(info *types.Info, call *ast.CallExpr, where string) {
	sig, ok := types.Unalias(info.Types[call.Fun].Type).(*types.Signature)
	if !ok {
		return
	}
	if sig.Variadic() && call.Ellipsis == token.NoPos && len(call.Args) >= sig.Params().Len() {
		c.report(call.Pos(), "%s: variadic call allocates its argument slice", where)
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < np-1 || (i == np-1 && !sig.Variadic()):
			pt = sig.Params().At(i).Type()
		case sig.Variadic() && call.Ellipsis != token.NoPos && i == np-1:
			pt = sig.Params().At(i).Type() // spread: slice passed as-is
		case sig.Variadic():
			if sl, ok := types.Unalias(sig.Params().At(np - 1).Type()).Underlying().(*types.Slice); ok {
				pt = sl.Elem()
			}
		}
		c.checkBoxing(info, pt, arg, where)
	}
}

// checkConversion flags string<->[]byte/[]rune conversions and conversions
// into interface types.
func (c *hotChecker) checkConversion(info *types.Info, target types.Type, call *ast.CallExpr, where string) {
	if len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	if tv, ok := info.Types[ast.Unparen(call)]; ok && tv.Value != nil {
		return // constant conversion
	}
	tu := types.Unalias(target).Underlying()
	au := types.Type(nil)
	if tv, ok := info.Types[arg]; ok && tv.Type != nil {
		au = types.Unalias(tv.Type).Underlying()
	}
	switch t := tu.(type) {
	case *types.Basic:
		if t.Info()&types.IsString != 0 {
			if _, ok := au.(*types.Slice); ok {
				c.report(call.Pos(), "%s: conversion to string allocates", where)
			}
		}
	case *types.Slice:
		if b, ok := au.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			c.report(call.Pos(), "%s: conversion from string allocates", where)
		}
	case *types.Interface:
		c.checkBoxing(info, target, arg, where)
	}
}

// checkBoxing flags storing a concrete, non-pointer-shaped value into an
// interface-typed slot (the conversion heap-allocates the boxed copy).
func (c *hotChecker) checkBoxing(info *types.Info, target types.Type, val ast.Expr, where string) {
	if target == nil {
		return
	}
	if _, ok := types.Unalias(target).Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := info.Types[val]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	vt := types.Unalias(tv.Type)
	if _, ok := vt.Underlying().(*types.Interface); ok {
		return // interface-to-interface: no boxing
	}
	if pointerShaped(vt) {
		return
	}
	c.report(val.Pos(), "%s: interface conversion boxes a value and allocates", where)
}

// pointerShaped reports whether values of t fit in a pointer word (stored
// directly in an interface without boxing).
func pointerShaped(t types.Type) bool {
	switch u := types.Unalias(t).Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// isSelfAppend reports whether call is the RHS of x = append(x, ...).
func isSelfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			if len(p.Lhs) == 1 && len(p.Rhs) == 1 && ast.Unparen(p.Rhs[0]) == call {
				return types.ExprString(p.Lhs[0]) == types.ExprString(call.Args[0])
			}
			return false
		default:
			return false
		}
	}
	return false
}

// isMapIndex reports whether idx indexes a map.
func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	tv, ok := info.Types[idx.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := types.Unalias(tv.Type).Underlying().(*types.Map)
	return isMap
}

// isStringType reports whether e has string type.
func isStringType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := types.Unalias(tv.Type).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// capturedVar returns the name of a variable the function literal captures
// from an enclosing function scope, or "".
func capturedVar(info *types.Info, pkg *Package, lit *ast.FuncLit) string {
	var captured string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the literal (params, locals)
		}
		if pkg.Types != nil && v.Parent() == pkg.Types.Scope() {
			return true // package-level variable: direct access, no capture
		}
		captured = v.Name()
		return false
	})
	return captured
}

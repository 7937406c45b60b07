package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// MmapViewAnalyzer polices the zero-copy views the v3 dump loader mints over
// mmap'd memory (unsafe.Slice / unsafe.String headers pointing into the
// mapping). A view is only valid while the mapping is alive, so the
// analyzer keeps views from outliving the Close that unmaps them:
//
//   - unsafe.Slice / unsafe.String may only be called inside a function
//     annotated //wikisearch:mmapview (the blessed minting helpers);
//   - a view — the result of a mmapview function or unsafe minting call,
//     tracked through locals and re-slices — may be passed to calls and
//     held in locals freely, but must not be stored into a field of a
//     struct type lacking //wikisearch:viewholder, into a composite
//     literal of such a type, or into a package-level variable;
//   - returning a view is reserved to mmapview functions (the caller then
//     inherits the tracking);
//   - writes through a view (v[i] = x, or indexing a viewholder's field)
//     are flagged: the pages are mapped read-only and writes fault;
//   - every //wikisearch:viewholder type must be droppable: it needs a
//     Close method, or it must appear as a field of an anchored
//     viewholder so the owner's Close reaches it.
var MmapViewAnalyzer = &Analyzer{
	Name: "mmapview",
	Doc:  "unsafe mmap views must stay inside annotated minters and viewholders",
	Run:  runMmapView,
}

func runMmapView(pass *Pass) {
	ix := pass.Prog.Index
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &mmapChecker{pass: pass, minter: ix.FuncDirs[fd]["mmapview"]}
			c.gatherTaints(fd.Body)
			inspectWithStack(fd.Body, c.check)
		}
	}
	reportUnanchoredHolders(pass)
}

type mmapChecker struct {
	pass   *Pass
	minter bool // enclosing func is //wikisearch:mmapview
	taints map[types.Object]bool
}

// isUnsafeViewCall reports whether call is unsafe.Slice or unsafe.String —
// the two builtins that forge a slice/string header over raw memory.
func isUnsafeViewCall(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	b, ok := info.Uses[sel.Sel].(*types.Builtin)
	if !ok || (b.Name() != "Slice" && b.Name() != "String") {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == "unsafe"
}

// mmapCalleeOf resolves a call's static callee like calleeOf, additionally
// stripping explicit generic instantiation (view[float64](...)).
func mmapCalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch f := fun.(type) {
	case *ast.IndexExpr:
		fun = ast.Unparen(f.X)
	case *ast.IndexListExpr:
		fun = ast.Unparen(f.X)
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[f].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		if fn, ok := info.Uses[f.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isViewCall reports whether e is a call that produces a view: an unsafe
// minting builtin or a //wikisearch:mmapview function.
func (c *mmapChecker) isViewCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	info := c.pass.Pkg.Info
	if isUnsafeViewCall(info, call) {
		return true
	}
	return c.pass.Prog.Index.MmapView[keyOf(mmapCalleeOf(info, call))]
}

// isViewExpr reports whether e designates a view: a minting call, a tainted
// local, or a re-slice of either.
func (c *mmapChecker) isViewExpr(e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.taints[c.pass.Pkg.Info.Uses[x]]
	case *ast.CallExpr:
		return c.isViewCall(x)
	case *ast.SliceExpr:
		return c.isViewExpr(x.X)
	}
	return false
}

// gatherTaints records locals holding views. Two sweeps propagate through
// chained assignments.
func (c *mmapChecker) gatherTaints(body *ast.BlockStmt) {
	c.taints = map[types.Object]bool{}
	info := c.pass.Pkg.Info
	mark := func(lhs, rhs ast.Expr) {
		if !c.isViewExpr(rhs) {
			return
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := info.Defs[id]
		if obj == nil {
			obj = info.Uses[id]
		}
		if obj != nil {
			c.taints[obj] = true
		}
	}
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Lhs) == len(st.Rhs) {
					for i := range st.Lhs {
						mark(st.Lhs[i], st.Rhs[i])
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						mark(st.Names[i], st.Values[i])
					}
				}
			}
			return true
		})
	}
}

func (c *mmapChecker) check(n ast.Node, stack []ast.Node) {
	info := c.pass.Pkg.Info
	switch e := n.(type) {
	case *ast.CallExpr:
		if isUnsafeViewCall(info, e) && !c.minter {
			c.pass.Reportf(e.Pos(),
				"unsafe view minted outside a //wikisearch:mmapview function")
		}
	case *ast.AssignStmt:
		if len(e.Lhs) != len(e.Rhs) {
			return
		}
		for i := range e.Lhs {
			if c.isViewExpr(e.Rhs[i]) {
				c.checkStore(e.Lhs[i])
			}
		}
	case *ast.ReturnStmt:
		if c.minter {
			return
		}
		for _, r := range e.Results {
			if c.isViewExpr(r) {
				c.pass.Reportf(r.Pos(),
					"mmap view returned from a function not annotated //wikisearch:mmapview")
			}
		}
	case *ast.CompositeLit:
		c.checkLiteral(e)
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil || !c.taints[obj] {
			return
		}
		c.checkWriteThrough(e, stack)
	}
}

// checkStore validates the target of an assignment whose RHS is a view:
// locals and slice elements are fine (still function-scoped), fields of
// non-viewholder types and package-level variables let the view outlive the
// mapping.
func (c *mmapChecker) checkStore(lhs ast.Expr) {
	info := c.pass.Pkg.Info
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		obj := info.Defs[l]
		if obj == nil {
			obj = info.Uses[l]
		}
		v, ok := obj.(*types.Var)
		if ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			c.pass.Reportf(lhs.Pos(),
				"mmap view stored into package-level variable %s outlives the mapping", l.Name)
		}
	case *ast.SelectorExpr:
		sel := info.Selections[l]
		if sel == nil || sel.Kind() != types.FieldVal {
			return
		}
		key := recvTypeKey(sel)
		if key == "" || c.pass.Prog.Index.ViewHolder[key] {
			return
		}
		c.pass.Reportf(lhs.Pos(),
			"mmap view stored into field of %s, which is not annotated //wikisearch:viewholder",
			shortTypeName(key))
	}
}

// checkLiteral flags views packed into composite literals of named
// non-viewholder types (anonymous structs and slice/map literals of
// builtin element types stay function-scoped and are fine).
func (c *mmapChecker) checkLiteral(lit *ast.CompositeLit) {
	tv, ok := c.pass.Pkg.Info.Types[lit]
	if !ok {
		return
	}
	t := types.Unalias(tv.Type)
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = types.Unalias(p.Elem())
	}
	key := namedKey(t)
	if key == "" || c.pass.Prog.Index.ViewHolder[key] {
		return
	}
	for _, elt := range lit.Elts {
		v := elt
		if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
			v = kv.Value
		}
		if c.isViewExpr(v) {
			c.pass.Reportf(v.Pos(),
				"mmap view stored into composite literal of %s, which is not annotated //wikisearch:viewholder",
				shortTypeName(key))
		}
	}
}

// checkWriteThrough flags writes through a view-carrying local: the mapped
// pages are read-only, so v[i] = x faults at runtime.
func (c *mmapChecker) checkWriteThrough(e *ast.Ident, stack []ast.Node) {
	i := len(stack) - 2
	cur := ast.Node(e)
	for i >= 0 {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			if p.X == cur {
				cur = p
				i--
				continue
			}
		case *ast.IndexExpr:
			if p.X == cur {
				cur = p
				i--
				continue
			}
		case *ast.SliceExpr:
			if p.X == cur {
				cur = p
				i--
				continue
			}
		}
		break
	}
	if cur == ast.Node(e) {
		return // bare use: reads and passing around are fine
	}
	if isWriteTarget(cur, stack, i) {
		c.pass.Reportf(e.Pos(),
			"write through mmap view %s: the mapped pages are read-only", e.Name)
	}
}

// reportUnanchoredHolders verifies that every viewholder type declared in
// this package is reachable from a Close: it either has a Close method or
// is held as a field by an anchored viewholder.
func reportUnanchoredHolders(pass *Pass) {
	ix := pass.Prog.Index
	anchored := map[string]bool{}
	for key := range ix.ViewHolder {
		if holderHasClose(pass.Prog, key) {
			anchored[key] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for h := range ix.ViewHolder {
			if !anchored[h] {
				continue
			}
			for _, f := range ix.HolderFields[h] {
				if ix.ViewHolder[f] && !anchored[f] {
					anchored[f] = true
					changed = true
				}
			}
		}
	}
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !directivesOf(gd.Doc, ts.Doc, ts.Comment)["viewholder"] {
					continue
				}
				key := pass.Pkg.Path + "." + ts.Name.Name
				if !anchored[key] {
					pass.Reportf(ts.Pos(),
						"viewholder %s is not reachable from any Close (add a Close method or hold it from an anchored viewholder)",
						ts.Name.Name)
				}
			}
		}
	}
}

// holderHasClose reports whether the named type behind a "pkg.Type" key has
// a Close method (value or pointer receiver).
func holderHasClose(prog *Program, key string) bool {
	i := strings.LastIndex(key, ".")
	if i < 0 {
		return false
	}
	pkg := prog.byPath[key[:i]]
	if pkg == nil || pkg.Types == nil {
		return false
	}
	tn, ok := pkg.Types.Scope().Lookup(key[i+1:]).(*types.TypeName)
	if !ok {
		return false
	}
	m, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), true, pkg.Types, "Close")
	_, ok = m.(*types.Func)
	return ok
}

// recvTypeKey renders the receiver type of a field selection as "pkg.Type".
func recvTypeKey(sel *types.Selection) string {
	recv := types.Unalias(sel.Recv())
	if p, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	return namedKey(recv)
}

// shortTypeName renders "pkg/path.Type" as "Type".
func shortTypeName(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}

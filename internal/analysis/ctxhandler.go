package analysis

import (
	"go/ast"
	"go/types"
)

// CtxHandlerAnalyzer enforces request-context threading in HTTP handlers:
// any function with a *net/http.Request parameter that calls into
// context-accepting code must pass a context derived from r.Context()
// (possibly wrapped by context.WithTimeout and friends). Passing
// context.Background() or context.TODO() detaches the work from the
// request: client disconnects and middleware deadlines stop propagating.
// Calls are checked in the handler only: a helper that makes its own
// background context is not followed (every engine entry point takes one).
var CtxHandlerAnalyzer = &Analyzer{
	Name: "ctxhandler",
	Doc:  "HTTP handlers must thread the request context into engine calls",
	Run:  runCtxHandler,
}

func runCtxHandler(pass *Pass) {
	info := pass.Pkg.Info
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			var sig *types.Signature
			if def, ok := info.Defs[fd.Name].(*types.Func); ok {
				sig, _ = def.Type().(*types.Signature)
			}
			if sig == nil || !hasRequestParam(sig) {
				continue
			}
			h := &ctxChecker{pass: pass}
			h.gatherGood(fd.Body)
			inspectWithStack(fd.Body, h.check)
		}
	}
}

// hasRequestParam reports whether sig has a *net/http.Request parameter.
func hasRequestParam(sig *types.Signature) bool {
	for p := range sig.Params().Variables() {
		if isRequestPtr(p.Type()) {
			return true
		}
	}
	return false
}

func isRequestPtr(t types.Type) bool {
	p, ok := types.Unalias(t).(*types.Pointer)
	return ok && namedKey(types.Unalias(p.Elem())) == "net/http.Request"
}

func isContextType(t types.Type) bool {
	return t != nil && namedKey(types.Unalias(t)) == "context.Context"
}

type ctxChecker struct {
	pass *Pass
	good map[types.Object]bool // locals holding request-derived contexts
}

// contextDerivers are context package functions whose result inherits the
// goodness of their first argument.
var contextDerivers = map[string]bool{
	"context..WithCancel":   true,
	"context..WithTimeout":  true,
	"context..WithDeadline": true,
	"context..WithValue":    true,
}

// isGoodExpr reports whether e evaluates to a request-derived context.
func (h *ctxChecker) isGoodExpr(e ast.Expr) bool {
	info := h.pass.Pkg.Info
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return h.good[info.Uses[x]]
	case *ast.CallExpr:
		f := calleeOf(info, x)
		if f == nil {
			return false
		}
		// r.Context()
		if f.Name() == "Context" {
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := info.Types[sel.X]; ok && isRequestPtr(tv.Type) {
					return true
				}
			}
		}
		// context.WithX(good, ...)
		if contextDerivers[keyOf(f)] && len(x.Args) > 0 {
			return h.isGoodExpr(x.Args[0])
		}
	}
	return false
}

// gatherGood runs a two-sweep fixpoint collecting locals assigned from
// request-derived context expressions.
func (h *ctxChecker) gatherGood(body *ast.BlockStmt) {
	h.good = map[types.Object]bool{}
	info := h.pass.Pkg.Info
	objOf := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if obj := info.Defs[id]; obj != nil {
			return obj
		}
		return info.Uses[id]
	}
	for range 2 {
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				switch {
				case len(st.Lhs) == len(st.Rhs):
					for i := range st.Lhs {
						if h.isGoodExpr(st.Rhs[i]) {
							if obj := objOf(st.Lhs[i]); obj != nil {
								h.good[obj] = true
							}
						}
					}
				case len(st.Rhs) == 1:
					// ctx, cancel := context.WithTimeout(...)
					if h.isGoodExpr(st.Rhs[0]) {
						if obj := objOf(st.Lhs[0]); obj != nil {
							h.good[obj] = true
						}
					}
				}
			case *ast.ValueSpec:
				if len(st.Names) == len(st.Values) {
					for i := range st.Names {
						if h.isGoodExpr(st.Values[i]) {
							if obj := objOf(st.Names[i]); obj != nil {
								h.good[obj] = true
							}
						}
					}
				}
			}
			return true
		})
	}
}

func (h *ctxChecker) check(n ast.Node, stack []ast.Node) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return
	}
	info := h.pass.Pkg.Info
	f := calleeOf(info, call)
	if f == nil {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 || len(call.Args) == 0 {
		return
	}
	if !isContextType(sig.Params().At(0).Type()) {
		return
	}
	arg := ast.Unparen(call.Args[0])
	switch x := arg.(type) {
	case *ast.CallExpr:
		cf := calleeOf(info, x)
		ck := keyOf(cf)
		if ck == "context..Background" || ck == "context..TODO" {
			h.pass.Reportf(arg.Pos(),
				"handler passes %s; derive the context from r.Context() instead", cf.Name())
			return
		}
		if !h.isGoodExpr(arg) {
			return // unknown call result: stay silent
		}
	case *ast.Ident:
		if tv, ok := info.Types[arg]; ok && tv.IsNil() {
			h.pass.Reportf(arg.Pos(), "handler passes a nil context; derive it from r.Context()")
			return
		}
		if !h.good[info.Uses[x]] {
			h.pass.Reportf(arg.Pos(),
				"handler passes a context not derived from the request; derive it from r.Context()")
		}
	}
}

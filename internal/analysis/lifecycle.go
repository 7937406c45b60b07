package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LifecycleAnalyzer requires every goroutine launched in non-test code to be
// tied to a shutdown mechanism, so the server and compactor paths
// cannot leak workers past Engine.Close / graceful shutdown. A go statement
// is accepted when:
//
//   - its line carries //wikisearch:daemon (intentionally process-lifetime,
//     with the rationale in the comment), or the enclosing function is
//     annotated //wikisearch:daemon;
//   - the goroutine body (a function literal, or the body of a statically
//     resolved in-module callee) contains a recognized join/cancel signal:
//     a Done() call on a sync.WaitGroup, a range over a channel, a channel
//     receive or send, or any use of a context.Context value.
//
// Goroutines whose body cannot be resolved (dynamic calls, out-of-module
// callees like http.Server.Serve) must use the daemon escape: the analyzer
// cannot see their termination condition.
var LifecycleAnalyzer = &Analyzer{
	Name: "lifecycle",
	Doc:  "every go statement must be tied to a shutdown mechanism or marked daemon",
	Run:  runLifecycle,
}

func runLifecycle(pass *Pass) {
	ix := pass.Prog.Index
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			daemon := ix.funcDirectives(fd)["daemon"]
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if daemon || ix.LineDirective("daemon", pass.Prog.Fset, gs.Pos()) {
					return true
				}
				checkGoStmt(pass, gs)
				return true
			})
		}
	}
}

func checkGoStmt(pass *Pass, gs *ast.GoStmt) {
	body, info := goroutineBody(pass, gs.Call)
	if body == nil {
		pass.Reportf(gs.Pos(),
			"goroutine body cannot be resolved statically; annotate the line //wikisearch:daemon with a rationale")
		return
	}
	if hasShutdownSignal(body, info) {
		return
	}
	pass.Reportf(gs.Pos(),
		"goroutine is not tied to a shutdown mechanism (context, WaitGroup, channel join, or //wikisearch:daemon)")
}

// goroutineBody resolves the block a go statement executes: the literal's
// body, or the declared body of a statically resolved in-module callee,
// with the types.Info of the package the body lives in.
func goroutineBody(pass *Pass, call *ast.CallExpr) (*ast.BlockStmt, *types.Info) {
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		return lit.Body, pass.Pkg.Info
	}
	fi := pass.Prog.Index.Funcs[keyOf(calleeOf(pass.Pkg.Info, call))]
	if fi == nil || fi.Decl.Body == nil {
		return nil, nil
	}
	return fi.Decl.Body, fi.Pkg.Info
}

// hasShutdownSignal reports whether body contains any construct tying the
// goroutine's lifetime to an external signal.
func hasShutdownSignal(body *ast.BlockStmt, info *types.Info) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.RangeStmt:
			// range over a channel terminates when the channel closes.
			if isChanExpr(info, e.X) {
				found = true
			}
		case *ast.SendStmt:
			found = true // rendezvous with a receiver
		case *ast.UnaryExpr:
			if isChanRecv(info, e) {
				found = true
			}
		case *ast.CallExpr:
			if isWaitGroupDone(info, e) {
				found = true
			}
		case *ast.Ident:
			// Any use of a context.Context value: the goroutine observes
			// cancellation (ctx.Done/ctx.Err or passes ctx downstream).
			if obj := info.Uses[e]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	_, isChan := types.Unalias(tv.Type).Underlying().(*types.Chan)
	return isChan
}

func isChanRecv(info *types.Info, e *ast.UnaryExpr) bool {
	if e.Op != token.ARROW {
		return false
	}
	return isChanExpr(info, e.X)
}

// isWaitGroupDone reports whether call is wg.Done() on a sync.WaitGroup.
func isWaitGroupDone(info *types.Info, call *ast.CallExpr) bool {
	f := calleeOf(info, call)
	if f == nil || f.Name() != "Done" || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := types.Unalias(sig.Recv().Type())
	if p, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	return namedKey(recv) == "sync.WaitGroup"
}

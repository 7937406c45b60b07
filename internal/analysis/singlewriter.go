package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SingleWriterAnalyzer encodes the per-worker buffer discipline the trace
// rings and the top-down scratch rely on: a field annotated
// //wikisearch:singlewriter is written by exactly one goroutine (the owning
// worker) without synchronization, and readers only see it through an
// explicit publish/drain point. The race detector cannot prove this at test
// scale — a write into another worker's buffer is a latent corruption, not
// a reproducible race — so the ownership is checked lexically:
//
//   - functions annotated //wikisearch:writer are the owning writer; they
//     may read and write the field freely;
//   - functions annotated //wikisearch:drain are the blessed read-side
//     accessors; they may read the field but any write is flagged;
//   - everywhere else, any access to the field (read or write) is flagged —
//     go through the annotated accessors;
//   - composite-literal construction is always fine: the value is not
//     shared yet.
var SingleWriterAnalyzer = &Analyzer{
	Name: "singlewriter",
	Doc:  "single-writer fields are only touched by their annotated writer and drain accessors",
	Run:  runSingleWriter,
}

func runSingleWriter(pass *Pass) {
	ix := pass.Prog.Index
	for _, file := range pass.Pkg.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			dirs := ix.funcDirectives(fd)
			if dirs["writer"] {
				continue // the owning writer has full access
			}
			c := &swChecker{pass: pass, drain: dirs["drain"]}
			inspectWithStack(fd.Body, c.check)
		}
	}
}

type swChecker struct {
	pass  *Pass
	drain bool // enclosing func is //wikisearch:drain
}

func (c *swChecker) check(n ast.Node, stack []ast.Node) {
	sel, ok := n.(*ast.SelectorExpr)
	if !ok {
		return
	}
	s := c.pass.Pkg.Info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return
	}
	key := recvTypeKey(s)
	if key == "" {
		return
	}
	key += "." + s.Obj().Name()
	if !c.pass.Prog.Index.SingleWriter[key] {
		return
	}
	// Climb the wrapper chain (parens, indexing, re-slicing) to the
	// consuming context to decide read vs write.
	i := len(stack) - 2
	cur := ast.Node(sel)
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
	what := shortFieldName(key)
	if isWriteTarget(cur, stack, i) {
		if c.drain {
			c.pass.Reportf(sel.Pos(),
				"write to single-writer field %s inside a //wikisearch:drain accessor", what)
		} else {
			c.pass.Reportf(sel.Pos(),
				"write to single-writer field %s outside its //wikisearch:writer owner", what)
		}
		return
	}
	// &x.f aliases the storage with write capability: only the writer may.
	if i >= 0 {
		if un, ok := stack[i].(*ast.UnaryExpr); ok && un.Op == token.AND && un.X == cur && !c.drain {
			c.pass.Reportf(sel.Pos(),
				"address of single-writer field %s taken outside its //wikisearch:writer owner", what)
			return
		}
	}
	if !c.drain {
		c.pass.Reportf(sel.Pos(),
			"read of single-writer field %s outside a //wikisearch:drain accessor", what)
	}
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const directivePrefix = "//wikisearch:"

// Index is the module-wide directive index singlewriter reads: each
// function's directives (writer, drain) and the annotated fields.
type Index struct {
	FuncDirs     map[*ast.FuncDecl]map[string]bool // each declaration's directives
	SingleWriter map[string]bool                   // "pkg.Type.field" with //wikisearch:singlewriter
}

// directivesOf extracts wikisearch directives from comment groups. A
// directive is a comment line `//wikisearch:NAME` optionally followed by a
// rationale after a space.
func directivesOf(groups ...*ast.CommentGroup) map[string]bool {
	var dirs map[string]bool
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			if dirs == nil {
				dirs = map[string]bool{}
			}
			dirs[name] = true
		}
	}
	return dirs
}

// buildIndex scans every loaded package (targets and module-internal
// dependencies) for declarations and directives.
func buildIndex(prog *Program) *Index {
	ix := &Index{
		FuncDirs:     map[*ast.FuncDecl]map[string]bool{},
		SingleWriter: map[string]bool{},
	}
	for _, pkg := range prog.byPath {
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			ix.scanFile(pkg, f)
		}
	}
	return ix
}

func (ix *Index) scanFile(pkg *Package, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			ix.FuncDirs[d] = directivesOf(d.Doc)
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if directivesOf(field.Doc, field.Comment)["singlewriter"] {
						for _, name := range field.Names {
							ix.SingleWriter[pkg.Path+"."+ts.Name.Name+"."+name.Name] = true
						}
					}
				}
			}
		}
	}
}

// inspectWithStack walks root invoking fn with the ancestor stack; the
// visited node is the top of the stack.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		fn(n, stack)
		return true
	})
}

// isWriteTarget reports whether cur (below stack index i) is assigned to or
// incremented.
func isWriteTarget(cur ast.Node, stack []ast.Node, i int) bool {
	if i < 0 {
		return false
	}
	switch p := stack[i].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if ast.Unparen(lhs) == cur {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(p.X) == cur
	}
	return false
}

// recvTypeKey renders the receiver type of a field selection as
// "pkg.Type", or "".
func recvTypeKey(sel *types.Selection) string {
	recv := types.Unalias(sel.Recv())
	if p, ok := recv.(*types.Pointer); ok {
		recv = types.Unalias(p.Elem())
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

const directivePrefix = "//wikisearch:"

// Index is the module-wide directive index shared by the analyzers:
// mmapview consults the view-minting functions and viewholder types,
// singlewriter the annotated fields and their writers and drains.
type Index struct {
	FuncDirs     map[*ast.FuncDecl]map[string]bool // each declaration's directives
	MmapView     map[string]bool                   // func keys with //wikisearch:mmapview
	SingleWriter map[string]bool                   // "pkg.Type.field" with //wikisearch:singlewriter
	ViewHolder   map[string]bool                   // "pkg.Type" with //wikisearch:viewholder
	// HolderFields maps a viewholder type key to the type keys of its
	// same-package named field types (pointers/slices stripped), the edges
	// the mmapview anchoring fixpoint walks toward a Close method.
	HolderFields map[string][]string
	lines        map[string]map[string]map[int]bool // directive → file → line
}

// LineDirective reports whether the line holding pos carries the given
// line-scoped //wikisearch directive (volatile).
func (ix *Index) LineDirective(name string, fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return ix.lines[name][p.Filename][p.Line]
}

// lineDirectives are the directives recorded by source line rather than by
// declaration: they suppress or scope one finding at one site.
var lineDirectives = map[string]bool{
	"volatile": true,
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

// recvBaseName returns the receiver's base type name ("" for plain
// functions), stripping pointers, parens and type parameters.
func recvBaseName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return ""
	}
	t := decl.Recv.List[0].Type
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.IndexExpr:
			t = e.X
		case *ast.IndexListExpr:
			t = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

func funcKey(pkgPath, recv, name string) string {
	return pkgPath + "." + recv + "." + name
}

// buildIndex scans every loaded package (targets and module-internal
// dependencies) for declarations and directives.
func buildIndex(prog *Program) *Index {
	ix := &Index{
		FuncDirs:     map[*ast.FuncDecl]map[string]bool{},
		MmapView:     map[string]bool{},
		SingleWriter: map[string]bool{},
		ViewHolder:   map[string]bool{},
		HolderFields: map[string][]string{},
		lines:        map[string]map[string]map[int]bool{},
	}
	for _, pkg := range prog.byPath {
		if pkg == nil {
			continue
		}
		for _, f := range pkg.Files {
			ix.scanFile(prog, pkg, f)
		}
	}
	return ix
}

func (ix *Index) scanFile(prog *Program, pkg *Package, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, directivePrefix)
			if !ok {
				continue
			}
			name, _, _ := strings.Cut(rest, " ")
			name = strings.TrimSpace(name)
			if !lineDirectives[name] {
				continue
			}
			p := prog.Fset.Position(c.Pos())
			byFile := ix.lines[name]
			if byFile == nil {
				byFile = map[string]map[int]bool{}
				ix.lines[name] = byFile
			}
			m := byFile[p.Filename]
			if m == nil {
				m = map[int]bool{}
				byFile[p.Filename] = m
			}
			m[p.Line] = true
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			dirs := directivesOf(d.Doc)
			ix.FuncDirs[d] = dirs
			if dirs["mmapview"] {
				ix.MmapView[funcKey(pkg.Path, recvBaseName(d), d.Name.Name)] = true
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				tdirs := directivesOf(d.Doc, ts.Doc, ts.Comment)
				typeKey := pkg.Path + "." + ts.Name.Name
				if tdirs["viewholder"] {
					ix.ViewHolder[typeKey] = true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					if tdirs["viewholder"] {
						if base := fieldBaseIdent(field.Type); base != "" {
							ix.HolderFields[typeKey] = append(ix.HolderFields[typeKey], pkg.Path+"."+base)
						}
					}
					if directivesOf(field.Doc, field.Comment)["singlewriter"] {
						for _, name := range field.Names {
							ix.SingleWriter[typeKey+"."+name.Name] = true
						}
					}
				}
			}
		}
	}
}

// calleeOf returns the *types.Func a call expression statically resolves to
// (a declared function or a method on a concrete or interface receiver), or
// nil for dynamic calls through function values and for builtins and type
// conversions.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // package-qualified function
		}
	}
	return nil
}

// keyOf renders a *types.Func as an index key, or "" when it has no
// package (error.Err and friends).
func keyOf(f *types.Func) string {
	if f == nil || f.Pkg() == nil {
		return ""
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			recv = named.Obj().Name()
		}
	}
	return funcKey(f.Pkg().Path(), recv, f.Name())
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

// fieldBaseIdent strips pointers, slices, arrays and parens off a struct
// field's type expression down to a bare same-package identifier, or "".
// Used to record the anchoring edges between viewholder types.
func fieldBaseIdent(t ast.Expr) string {
	for {
		switch e := t.(type) {
		case *ast.StarExpr:
			t = e.X
		case *ast.ParenExpr:
			t = e.X
		case *ast.ArrayType:
			t = e.Elt
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}

// namedKey renders a named type as "pkgpath.Name", or "".
func namedKey(t types.Type) string {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// DirectivesAnalyzer validates every //wikisearch: directive in the tree:
// unknown names, misspellings (a directive comment that no analyzer reads
// is silently dead — worse than absent, because it documents an invariant
// nobody checks) and directives attached to the wrong kind of declaration
// (a field directive left on a line after the field was inlined away, a
// func directive stranded above a type after a refactor) are all errors.
var DirectivesAnalyzer = &Analyzer{
	Name: "directives",
	Doc:  "every //wikisearch: directive must be known and attached to the right declaration kind",
	Run:  runDirectives,
}

// directiveAttach maps each known directive to the declaration kinds it may
// annotate. "line" means a free-standing or trailing comment scoping one
// statement. No analyzer reads volatile; it stays known only because the
// two report writers in benchmark/ still carry it.
var directiveAttach = map[string][]string{
	"writer":       {"func"},
	"drain":        {"func"},
	"singlewriter": {"field"},
	"volatile":     {"line"},
}

// nearMissRe matches comments that look like a directive but are malformed
// (whitespace between // and the prefix, which detaches the directive from
// the toolchain's pragma convention and silently disables it).
var nearMissRe = regexp.MustCompile(`^//[ \t]+wikisearch:`)

func runDirectives(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		attach := attachmentMap(file)
		for _, cg := range file.Comments {
			kind := attach[cg]
			if kind == "" {
				kind = "line"
			}
			for _, c := range cg.List {
				checkDirectiveComment(pass, c, kind)
			}
		}
	}
}

// attachmentMap classifies each doc/trailing comment group by the kind of
// declaration it annotates.
func attachmentMap(file *ast.File) map[*ast.CommentGroup]string {
	attach := map[*ast.CommentGroup]string{}
	set := func(cg *ast.CommentGroup, kind string) {
		if cg != nil {
			attach[cg] = kind
		}
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			set(d.Doc, "func")
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			set(d.Doc, "type")
			for _, spec := range d.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				set(ts.Doc, "type")
				set(ts.Comment, "type")
				st, ok := ts.Type.(*ast.StructType)
				if !ok || st.Fields == nil {
					continue
				}
				for _, field := range st.Fields.List {
					set(field.Doc, "field")
					set(field.Comment, "field")
				}
			}
		}
	}
	return attach
}

func checkDirectiveComment(pass *Pass, c *ast.Comment, kind string) {
	rest, ok := strings.CutPrefix(c.Text, directivePrefix)
	if !ok {
		if nearMissRe.MatchString(c.Text) {
			pass.Reportf(c.Pos(),
				"malformed directive %q: write //wikisearch:NAME with no space after //", firstLine(c.Text))
		}
		return
	}
	name, _, _ := strings.Cut(rest, " ")
	name = strings.TrimSpace(name)
	allowed, known := directiveAttach[name]
	if !known {
		pass.Reportf(c.Pos(), "unknown directive //wikisearch:%s (known: %s)", name, knownDirectives())
		return
	}
	for _, k := range allowed {
		if k == kind {
			return
		}
	}
	pass.Reportf(c.Pos(),
		"misplaced directive //wikisearch:%s: applies to %s declarations, found on a %s",
		name, strings.Join(allowed, "/"), kind)
}

func knownDirectives() string {
	names := make([]string, 0, len(directiveAttach))
	for n := range directiveAttach {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

package wikisearch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// docFileRef matches a back-quoted file reference in prose: a token ending
// in .go, .json, .txt or .md, with an optional :N line suffix.
var docFileRef = regexp.MustCompile("`([^`\\s]*\\.(?:go|json|txt|md))(?::(\\d+))?`")

// codeFence matches a fenced code block; file names inside one are command
// lines, not references.
var codeFence = regexp.MustCompile("(?ms)^```.*?^```")

// codeSpan matches one inline code span; flagSpan is a span that is a lone
// flag, optionally with its value.
var (
	codeSpan = regexp.MustCompile("`[^`\n]+`")
	flagSpan = regexp.MustCompile(`^--?([A-Za-z][\w-]*)(?:[= ].*)?$`)
)

// docFlagAllow holds the flags docs may cite that no command of this
// repository declares.
var docFlagAllow = map[string]bool{"race": true}

// TestDocReferences: every file the user-facing documents cite in back
// quotes exists, and a cited line number is within the file. A token with a
// slash is a path from the repository root; a bare name (or glob) must match
// some file in the repository. Flags are checked too; see checkDocFlags.
func TestDocReferences(t *testing.T) {
	var names []string // every file path in the repo
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() {
			names = append(names, filepath.ToSlash(p))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lineCount := func(p string) int {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return len(strings.Split(strings.TrimSuffix(string(data), "\n"), "\n"))
	}
	// resolve returns the repository files a token names.
	resolve := func(tok string) []string {
		var out []string
		for _, p := range names {
			target := p
			if !strings.Contains(tok, "/") {
				target = path.Base(p)
			}
			if ok, _ := path.Match(tok, target); ok {
				out = append(out, p)
			}
		}
		return out
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append([]string{"README.md", "DESIGN.md"}, docs...)
	checkDocFlags(t, append(docs, "benchmark/README.md"))
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := stripFences(string(data))
		for _, m := range docFileRef.FindAllStringSubmatchIndex(text, -1) {
			tok := text[m[2]:m[3]]
			if path.Ext(tok) == tok {
				continue // a bare extension such as `.go`
			}
			where := doc + ":" + strconv.Itoa(1+strings.Count(text[:m[0]], "\n"))
			hits := resolve(strings.TrimPrefix(tok, "./"))
			if len(hits) == 0 {
				t.Errorf("%s: `%s` names no file in the repository", where, tok)
				continue
			}
			if m[4] < 0 {
				continue
			}
			n, _ := strconv.Atoi(text[m[4]:m[5]])
			ok := false
			for _, p := range hits {
				if n <= lineCount(p) {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s: `%s:%d` is past the end of %s", where, tok, n, strings.Join(hits, ", "))
			}
		}
	}
}

// stripFences blanks every fenced code block, keeping line numbers.
func stripFences(doc string) string {
	return codeFence.ReplaceAllStringFunc(doc, func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
}

// checkDocFlags: a code span that is a lone flag (`-name`, `-name value`)
// must be declared by some command, and a command line in a fenced block
// that invokes a command must use only that command's flags.
func checkDocFlags(t *testing.T, docs []string) {
	t.Helper()
	cmds := commandFlags(t)
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := stripFences(string(data))
		for _, m := range codeSpan.FindAllStringIndex(text, -1) {
			f := flagSpan.FindStringSubmatch(text[m[0]+1 : m[1]-1])
			if f == nil || docFlagAllow[f[1]] {
				continue
			}
			declared := false
			for _, flags := range cmds {
				declared = declared || flags[f[1]]
			}
			if !declared {
				t.Errorf("%s:%d: `%s` is no flag of any command", doc, 1+strings.Count(text[:m[0]], "\n"), text[m[0]+1:m[1]-1])
			}
		}
		for _, block := range codeFence.FindAllStringIndex(string(data), -1) {
			first := 1 + strings.Count(string(data[:block[0]]), "\n")
			lines := strings.Split(string(data[block[0]:block[1]]), "\n")
			for i := 0; i < len(lines); i++ {
				at := first + i
				line := lines[i]
				for strings.HasSuffix(line, "\\") && i+1 < len(lines) {
					i++
					line = strings.TrimSuffix(line, "\\") + " " + lines[i]
				}
				cmd, args := invocation(strings.Fields(line))
				flags, ok := cmds[cmd]
				if !ok {
					continue
				}
				for _, a := range args {
					if a == "#" || a == "|" || a == "&&" || a == ";" || a == ">" {
						break
					}
					f := flagSpan.FindStringSubmatch(a)
					if f != nil && !flags[f[1]] {
						t.Errorf("%s:%d: %s has no flag %s", doc, at, cmd, a)
					}
				}
			}
		}
	}
}

// invocation splits a shell command line into the command it runs —
// `<cmd>` or a path ending in it, `go run ./cmd/<cmd>`, and for the
// benchmark `go run ./benchmark` or `bash benchmark/run.sh` — and its
// arguments. cmd is empty for any other line.
func invocation(fields []string) (cmd string, args []string) {
	switch {
	case len(fields) >= 3 && fields[0] == "go" && fields[1] == "run":
		if c, ok := strings.CutPrefix(fields[2], "./cmd/"); ok {
			return c, fields[3:]
		}
		if fields[2] == "./benchmark" {
			return "benchmark", fields[3:]
		}
	case len(fields) >= 2 && fields[0] == "bash" && fields[1] == "benchmark/run.sh":
		return "benchmark", fields[2:]
	case len(fields) >= 1:
		return path.Base(fields[0]), fields[1:]
	}
	return "", nil
}

// commandFlags returns the flag names each command declares through the
// flag package: the commands under cmd/, named by directory, and the
// benchmark.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	files, err := filepath.Glob("cmd/*/*.go")
	if err != nil {
		t.Fatal(err)
	}
	bench, err := filepath.Glob("benchmark/*.go")
	if err != nil {
		t.Fatal(err)
	}
	cmds := map[string]map[string]bool{}
	fset := token.NewFileSet()
	for _, file := range append(files, bench...) {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(filepath.Dir(file))
		if cmds[name] == nil {
			cmds[name] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			arg := 0 // flag.String("name", ...)
			switch sel.Sel.Name {
			case "Bool", "Duration", "Float64", "Func", "BoolFunc", "Int", "Int64", "String", "Uint", "Uint64":
			case "BoolVar", "DurationVar", "Float64Var", "IntVar", "Int64Var", "StringVar", "TextVar", "UintVar", "Uint64Var", "Var":
				arg = 1 // flag.StringVar(&x, "name", ...)
			default:
				return true
			}
			if len(call.Args) > arg {
				if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if v, err := strconv.Unquote(lit.Value); err == nil {
						cmds[name][v] = true
					}
				}
			}
			return true
		})
	}
	return cmds
}

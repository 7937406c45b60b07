package analysis

import (
	"go/token"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// wantExpectation is one parsed `// want "regex"` comment.
type wantExpectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	source  string
	matched bool
}

// parseWants extracts want expectations from every comment in prog. A want
// comment has the form
//
//	// want "regex" `another regex`
//
// and expects each listed pattern to match a distinct diagnostic reported
// on the same line.
func parseWants(t *testing.T, prog *Program) []*wantExpectation {
	t.Helper()
	var wants []*wantExpectation
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, "want ")
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					for _, pat := range splitQuoted(t, pos, rest) {
						rx, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", pos, pat, err)
						}
						wants = append(wants, &wantExpectation{
							file:   pos.Filename,
							line:   pos.Line,
							rx:     rx,
							source: pat,
						})
					}
				}
			}
		}
	}
	return wants
}

// splitQuoted splits `"a" "b"` / backquoted segments into their contents.
func splitQuoted(t *testing.T, pos token.Position, s string) []string {
	t.Helper()
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out
		}
		quote := s[0]
		if quote != '"' && quote != '`' {
			t.Fatalf("%s: malformed want comment near %q", pos, s)
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			t.Fatalf("%s: unterminated quote in want comment %q", pos, s)
		}
		out = append(out, s[1:1+end])
		s = s[end+2:]
	}
}

// checkExpectations runs the analyzers over prog and matches the findings
// against the want comments: every diagnostic must be expected, and every
// expectation must fire.
func checkExpectations(t *testing.T, prog *Program, analyzers []*Analyzer) {
	t.Helper()
	for _, pkg := range prog.Packages {
		for _, e := range pkg.Errs {
			t.Fatalf("%s: load error: %v", pkg.Path, e)
		}
	}
	wants := parseWants(t, prog)
	diags := RunAnalyzers(prog, analyzers)
	for _, d := range diags {
		pos := prog.Fset.Position(d.Pos)
		found := false
		for _, w := range wants {
			if w.matched || w.file != pos.Filename || w.line != pos.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.source)
		}
	}
}

// checkFixture loads testdata/<name> and checks it against its want
// comments with the full analyzer suite (asserting both that the targeted
// analyzer fires and that the others stay silent).
func checkFixture(t *testing.T, name string) {
	t.Helper()
	prog, err := LoadFixtureDir("testdata/" + name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	checkExpectations(t, prog, All())
}

func TestSingleWriterFixture(t *testing.T) { checkFixture(t, "singlewriter") }
func TestCompactorFixture(t *testing.T)    { checkFixture(t, "compactor") }

// TestAnalyzerNamesUnique guards the registry against copy-paste clashes.
func TestAnalyzerNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing a name, doc, or run function", a)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if len(seen) < 2 {
		t.Errorf("expected at least 2 analyzers, got %d", len(seen))
	}
}

// TestDirectiveParsing covers the comment-scanning corner cases.
func TestDirectiveParsing(t *testing.T) {
	dirs := directivesOf(nil)
	if dirs != nil {
		t.Errorf("directivesOf(nil) = %v, want nil", dirs)
	}
	prog, err := LoadFixtureDir("testdata/singlewriter")
	if err != nil {
		t.Fatal(err)
	}
	ix := prog.Index
	var fieldKeys []string
	for k := range ix.SingleWriter {
		fieldKeys = append(fieldKeys, k)
	}
	sort.Strings(fieldKeys)
	wantFields := []string{"fixture/singlewriter.Ring.pos", "fixture/singlewriter.Ring.slots"}
	if !slices.Equal(fieldKeys, wantFields) {
		t.Errorf("SingleWriter keys = %v, want %v", fieldKeys, wantFields)
	}
	var drain map[string]bool
	for decl, dirs := range ix.FuncDirs {
		if decl.Name.Name == "Drain" && decl.Recv != nil {
			drain = dirs
		}
	}
	if !drain["drain"] || drain["writer"] {
		t.Errorf("Ring.Drain directives = %v, want exactly drain", drain)
	}
}

// TestShortFieldName pins the message rendering helper.
func TestShortFieldName(t *testing.T) {
	for in, want := range map[string]string{
		"wikisearch/internal/parallel.Bitset.words": "Bitset.words",
		"a.B.c": "B.c",
		"odd":   "odd",
	} {
		if got := shortFieldName(in); got != want {
			t.Errorf("shortFieldName(%q) = %q, want %q", in, got, want)
		}
	}
}

package analysis

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDirectivesFixture pins the validator's findings over the seeded
// fixture. The findings land on the directive comments themselves, so the
// expectations are listed here (keyed by the directive text on the flagged
// line) instead of as // want comments — a line cannot hold both the
// offending comment and a want comment.
func TestDirectivesFixture(t *testing.T) {
	prog, err := LoadFixtureDir("testdata/directives")
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, e := range pkg.Errs {
			t.Fatalf("load error: %v", e)
		}
	}
	expected := map[string]string{
		"//wikisearch:drain":                         `misplaced directive //wikisearch:drain: applies to func declarations, found on a field`,
		"//wikisearch:drian":                         `unknown directive //wikisearch:drian`,
		"// wikisearch:drain":                        `malformed directive "// wikisearch:drain"`,
		"//wikisearch:volatile":                      `misplaced directive //wikisearch:volatile: applies to line declarations, found on a type`,
		"//wikisearch:writer left on a field":        `misplaced directive //wikisearch:writer: applies to func declarations, found on a field`,
		"//wikisearch:mmapview":                      `unknown directive //wikisearch:mmapview`,
		"//wikisearch:viewholder":                    `unknown directive //wikisearch:viewholder`,
		"//wikisearch:writer":                        `misplaced directive //wikisearch:writer: applies to func declarations, found on a type`,
		"//wikisearch:atomic":                        `unknown directive //wikisearch:atomic`,
		"//wikisearch:nocopy":                        `unknown directive //wikisearch:nocopy`,
		"//wikisearch:hotpath":                       `unknown directive //wikisearch:hotpath`,
		"//wikisearch:coldpath":                      `unknown directive //wikisearch:coldpath`,
		"go Cold() //wikisearch:daemon":              `unknown directive //wikisearch:daemon`,
		"return make([]int, 8) //wikisearch:allocok": `unknown directive //wikisearch:allocok`,
	}
	diags := RunAnalyzers(prog, All())
	lineText := fixtureLines(t, prog)
	seen := map[string]bool{}
	for _, d := range diags {
		if d.Analyzer != "directives" {
			t.Errorf("unexpected %s finding: %s", d.Analyzer, d.Message)
			continue
		}
		line := strings.TrimSpace(lineText[prog.Fset.Position(d.Pos).Line])
		want, ok := expected[line]
		if !ok {
			t.Errorf("unexpected directives finding on %q: %s", line, d.Message)
			continue
		}
		if !regexp.MustCompile(regexp.QuoteMeta(want)).MatchString(d.Message) {
			t.Errorf("finding on %q = %q, want it to contain %q", line, d.Message, want)
		}
		seen[line] = true
	}
	for line := range expected {
		if !seen[line] {
			t.Errorf("no directives finding on line %q", line)
		}
	}
}

// fixtureLines returns the 1-indexed source lines of the single fixture file.
func fixtureLines(t *testing.T, prog *Program) []string {
	t.Helper()
	if len(prog.Packages) != 1 || len(prog.Packages[0].Files) != 1 {
		t.Fatalf("expected a single-file fixture")
	}
	pos := prog.Fset.Position(prog.Packages[0].Files[0].Pos())
	data, err := os.ReadFile(pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	return append([]string{""}, strings.Split(string(data), "\n")...)
}

package wikisearch_test

import (
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

// TestDocReferences: every file the user-facing documents cite in back
// quotes exists, and a cited line number is within the file. A token with a
// slash is a path from the repository root; a bare name (or glob) must match
// some file in the repository.
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
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, docs...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := codeFence.ReplaceAllStringFunc(string(data), func(s string) string {
			return strings.Repeat("\n", strings.Count(s, "\n")) // keep line numbers
		})
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

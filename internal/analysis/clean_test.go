package analysis

import "testing"

// TestRepositoryClean loads every package of this module — the same walk
// cmd/wikilint performs — and asserts the analyzer suite reports nothing:
// the tree's //wikisearch annotations and the invariants they promise hold.
// A finding here means an mmap view escaped, a single-writer field gained
// a second writer, or a durable write lost its sync.
func TestRepositoryClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	prog, err := LoadPackages("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range prog.Packages {
		for _, e := range pkg.Errs {
			t.Fatalf("%s: load error: %v", pkg.Path, e)
		}
	}
	for _, d := range RunAnalyzers(prog, All()) {
		t.Errorf("%s: %s: %s", prog.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}

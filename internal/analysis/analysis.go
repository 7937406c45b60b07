// Package analysis is a self-contained static-analysis driver and analyzer
// suite enforcing the engine invariant that neither the compiler nor the
// tests can see: single-writer buffers need one owner. Every other rule the
// suite once held became a check that runs the code. Typed atomics admit
// no plain access, and go vet's copylocks check reports copies of the
// noCopy-holding types. The AllocationFree tests (make allocguard) run
// every branch of the search kernel and count its allocations.
// internal/server's TestRoutesHonorCancelledContext stops every route's
// search on a cancelled request, and TestCloseLeavesNoGoroutine finds
// what outlives a Close. internal/storage's TestAtomicWriteFaults and
// TestAtomicWriteCrash fail, or crash, every file-system call of every
// durable writer. The root package's TestResultOutlivesEngineClose reads
// every string of a search result after its mmap'd dump is unmapped, and
// TestOnlyStorageImportsUnsafe keeps unsafe views in internal/storage.
//
// The driver is built on the standard library only (go/parser, go/types and
// the go/importer source importer) — the repository's stdlib-only rule
// excludes golang.org/x/tools. Source directives recognized by the suite
// are documented in DESIGN.md §8 and §11:
//
//	//wikisearch:singlewriter struct field: one annotated writer, reads via
//	                          annotated drain accessors
//	//wikisearch:writer       func: the owning writer of singlewriter fields
//	//wikisearch:drain        func: blessed read-side accessor for
//	                          singlewriter fields
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string
}

// Analyzer is one named check run over every package of a Program.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one (analyzer, package) execution: the package under
// inspection plus the whole Program for cross-package lookups.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      pos,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		SingleWriterAnalyzer,
		DirectivesAnalyzer,
	}
}

// RunAnalyzers runs the analyzers over every target package of prog and
// returns the deduplicated findings in file/line order. Packages with parse
// or type errors are skipped (the caller reports Package.Errs separately).
func RunAnalyzers(prog *Program, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range prog.Packages {
		if len(pkg.Errs) > 0 || pkg.Types == nil {
			continue
		}
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Prog: prog, Pkg: pkg, diags: &diags})
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := prog.Fset.Position(diags[i].Pos), prog.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	seen := map[string]bool{}
	out := diags[:0]
	for _, d := range diags {
		key := fmt.Sprintf("%v|%s|%s", d.Pos, d.Analyzer, d.Message)
		if !seen[key] {
			seen[key] = true
			out = append(out, d)
		}
	}
	return out
}

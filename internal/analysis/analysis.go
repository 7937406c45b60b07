// Package analysis is a self-contained static-analysis driver and analyzer
// suite enforcing the engine's invariants that neither the compiler nor go
// vet can see: mmap views must not outlive their mapping, single-writer
// buffers need one owner, durable writes sync before they rename. The
// lock-free and no-copy rules need no analyzer here: the shared arrays hold
// sync/atomic.Uint64 words, which admit no plain access, and the types that
// must stay put carry a noCopy field that go vet's copylocks check reports
// copies of. Nor does the allocation-free search kernel: the AllocationFree
// tests (make allocguard) run every branch of it and count its allocations.
// Two rules became tests that run the code: every route must stop its search
// on a cancelled request (internal/server's TestRoutesHonorCancelledContext),
// and nothing the engine, mutator, server or worker pool starts may outlive
// its Close (TestCloseLeavesNoGoroutine).
//
// The driver is built on the standard library only (go/parser, go/types and
// the go/importer source importer) — the repository's stdlib-only rule
// excludes golang.org/x/tools. Source directives recognized by the suite
// are documented in DESIGN.md §8 and §11:
//
//	//wikisearch:mmapview     func: may mint unsafe views over a mapping
//	//wikisearch:viewholder   type: may hold mmap views; must reach a Close
//	//wikisearch:singlewriter struct field: one annotated writer, reads via
//	                          annotated drain accessors
//	//wikisearch:writer       func: the owning writer of singlewriter fields
//	//wikisearch:drain        func: blessed read-side accessor for
//	                          singlewriter fields
//	//wikisearch:volatile     line: file write intentionally non-durable
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
		MmapViewAnalyzer,
		SingleWriterAnalyzer,
		DurabilityAnalyzer,
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

// Package analysis is a self-contained static-analysis driver and analyzer
// suite enforcing the engine's concurrency and hot-path invariants: the
// lock-free bottom-up search is only correct if every access to the shared
// arrays goes through the blessed atomic helpers, and the zero-allocation
// kernel is only zero-allocation while nobody adds an allocating construct
// to an annotated hot function. Those invariants used to live in comments
// and dynamic guards; this package machine-checks them on every `make lint`.
//
// The driver is built on the standard library only (go/parser, go/types and
// the go/importer source importer) — the repository's stdlib-only rule
// excludes golang.org/x/tools. Source directives recognized by the suite
// are documented in DESIGN.md §8 and §11:
//
//	//wikisearch:atomic       struct field: elements only via sync/atomic
//	//wikisearch:atomicalias  func: result aliases atomic storage
//	//wikisearch:exclusive    func: exempt from the atomic discipline
//	                          (documented exclusive access)
//	//wikisearch:hotpath      func: must be transitively allocation-free
//	//wikisearch:coldpath     func: stops the hotpath transitive walk
//	//wikisearch:allocok      line: suppress one hotpathalloc finding
//	//wikisearch:nocopy       type: values must never be copied
//	//wikisearch:bgcontext    func: supplies context.Background; must not be
//	                          called from HTTP handlers
//	//wikisearch:mmapview     func: may mint unsafe views over a mapping
//	//wikisearch:viewholder   type: may hold mmap views; must reach a Close
//	//wikisearch:singlewriter struct field: one annotated writer, reads via
//	                          annotated drain accessors
//	//wikisearch:writer       func: the owning writer of singlewriter fields
//	//wikisearch:drain        func: blessed read-side accessor for
//	                          singlewriter fields
//	//wikisearch:daemon       func or line: goroutine intentionally lives
//	                          for the process lifetime
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
		AtomicFieldAnalyzer,
		HotPathAllocAnalyzer,
		NoCopyAnalyzer,
		CtxHandlerAnalyzer,
		MmapViewAnalyzer,
		SingleWriterAnalyzer,
		LifecycleAnalyzer,
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

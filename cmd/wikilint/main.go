// Command wikilint runs the repository's static-analysis suite (package
// internal/analysis) over the given package patterns and reports findings.
//
// Usage:
//
//	wikilint [-list] [-format text|github] [-nocache] [-cache-dir dir] [patterns ...]
//
// Patterns are directory paths relative to the current module, "./..." by
// default. The command exits 0 when the tree is clean, 1 when any analyzer
// reports a finding, and 2 on load or usage errors.
//
// Results are cached under a content hash of the module source (every .go
// file plus go.mod, the pattern list, the analyzer set and the Go version),
// so a warm run skips loading and type-checking entirely; -nocache forces a
// fresh analysis.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wikisearch/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	format := flag.String("format", "text", "output format: text, or github (workflow annotations)")
	nocache := flag.Bool("nocache", false, "bypass the result cache and re-analyze")
	cacheDir := flag.String("cache-dir", analysis.DefaultCacheDir(), "result cache directory")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: wikilint [-list] [-format text|github] [-nocache] [-cache-dir dir] [patterns ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	render, ok := formatters[*format]
	if !ok {
		fmt.Fprintf(os.Stderr, "wikilint: unknown -format %q (text, github)\n", *format)
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	key := ""
	if modDir, err := analysis.FindModuleDir("."); err == nil {
		if k, err := analysis.CacheKey(modDir, patterns, analyzers); err == nil {
			key = k
		}
	}
	if !*nocache && key != "" {
		if diags, hit := analysis.LookupCache(*cacheDir, key); hit {
			report(render, diags)
			return
		}
	}

	prog, err := analysis.LoadPackages(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wikilint: %v\n", err)
		os.Exit(2)
	}
	loadErrs := 0
	for _, pkg := range prog.Packages {
		for _, e := range pkg.Errs {
			fmt.Fprintf(os.Stderr, "wikilint: %s: %v\n", pkg.Path, e)
			loadErrs++
		}
	}
	if loadErrs > 0 {
		os.Exit(2)
	}

	diags := analysis.ResolveDiagnostics(prog, analysis.RunAnalyzers(prog, analyzers))
	if key != "" {
		analysis.SaveCache(*cacheDir, key, diags) // best-effort
	}
	report(render, diags)
}

// report renders the findings and exits 1 when there are any.
func report(render func([]analysis.CachedDiagnostic), diags []analysis.CachedDiagnostic) {
	render(diags)
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "wikilint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

var formatters = map[string]func([]analysis.CachedDiagnostic){
	"text":   renderText,
	"github": renderGitHub,
}

func renderText(diags []analysis.CachedDiagnostic) {
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
}

// renderGitHub emits GitHub Actions workflow commands, which the runner
// turns into inline PR annotations.
func renderGitHub(diags []analysis.CachedDiagnostic) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	escProp := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=wikilint/%s::%s\n",
			escProp.Replace(d.File), d.Line, d.Col, escProp.Replace(d.Analyzer), esc.Replace(d.Message))
	}
	renderText(diags) // keep the log readable alongside the annotations
}

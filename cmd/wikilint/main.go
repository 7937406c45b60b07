// Command wikilint runs the repository's static-analysis suite (package
// internal/analysis) over the given package patterns and reports findings.
//
// Usage:
//
//	wikilint [-list] [-format text|github] [patterns ...]
//
// Patterns are directory paths relative to the current module, "./..." by
// default. The command exits 0 when the tree is clean, 1 when any analyzer
// reports a finding, and 2 on load or usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"wikisearch/internal/analysis"
)

// finding is one diagnostic with its position resolved, File relative to
// the module root.
type finding struct {
	File      string
	Line, Col int
	Analyzer  string
	Message   string
}

func main() {
	list := flag.Bool("list", false, "list registered analyzers and exit")
	format := flag.String("format", "text", "output format: text, or github (workflow annotations)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: wikilint [-list] [-format text|github] [patterns ...]\n")
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

	var findings []finding
	for _, d := range analysis.RunAnalyzers(prog, analyzers) {
		p := prog.Fset.Position(d.Pos)
		file := p.Filename
		if rel, err := filepath.Rel(prog.ModuleDir, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
		findings = append(findings, finding{file, p.Line, p.Column, d.Analyzer, d.Message})
	}
	render(findings)
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "wikilint: %d finding(s)\n", len(findings))
		os.Exit(1)
	}
}

var formatters = map[string]func([]finding){
	"text":   renderText,
	"github": renderGitHub,
}

func renderText(diags []finding) {
	for _, d := range diags {
		fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
	}
}

// renderGitHub emits GitHub Actions workflow commands, which the runner
// turns into inline PR annotations.
func renderGitHub(diags []finding) {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	escProp := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	for _, d := range diags {
		fmt.Printf("::error file=%s,line=%d,col=%d,title=wikilint/%s::%s\n",
			escProp.Replace(d.File), d.Line, d.Col, escProp.Replace(d.Analyzer), esc.Replace(d.Message))
	}
	renderText(diags) // keep the log readable alongside the annotations
}

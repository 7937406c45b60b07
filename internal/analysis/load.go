package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package under analysis: its parsed files with
// comments, the types.Package, and the full types.Info the analyzers consult.
type Package struct {
	Path  string // import path
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// Errs collects parse and type errors. A package with errors is still
	// returned (analyzers skip it) so the driver can report every broken
	// package in one run.
	Errs []error
}

// Program is a loaded set of packages sharing one FileSet plus the
// module-wide directive index the cross-package analyzers (mmapview's
// minter lookup) need.
type Program struct {
	Fset       *token.FileSet
	ModulePath string // empty for fixture loads
	ModuleDir  string
	Packages   []*Package // analysis targets, in load order
	Index      *Index

	byPath  map[string]*Package
	loading map[string]bool
	stdImp  types.ImporterFrom
}

// LoadPackages loads the packages matched by patterns (directory paths,
// optionally ending in "/..." for a recursive walk) rooted at dir, which
// must lie inside a Go module. Module-internal imports are type-checked from
// the module source; everything else resolves through the stdlib source
// importer, so the loader needs no dependencies outside the standard
// library.
func LoadPackages(dir string, patterns []string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	prog := newProgram(modPath, modDir)
	var dirs []string
	seen := map[string]bool{}
	for _, pat := range patterns {
		base, recursive := strings.CutSuffix(pat, "...")
		base = strings.TrimSuffix(base, "/")
		if base == "" || base == "." {
			base = abs
		} else if !filepath.IsAbs(base) {
			base = filepath.Join(abs, base)
		}
		if recursive {
			walkGoDirs(base, func(d string) {
				if !seen[d] {
					seen[d] = true
					dirs = append(dirs, d)
				}
			})
		} else if !seen[base] {
			seen[base] = true
			dirs = append(dirs, base)
		}
	}
	sort.Strings(dirs)
	for _, d := range dirs {
		rel, err := filepath.Rel(modDir, d)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", d, modDir)
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := prog.ensure(path, d)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			prog.Packages = append(prog.Packages, pkg)
		}
	}
	prog.Index = buildIndex(prog)
	return prog, nil
}

// LoadFixtureDir loads a single, self-contained package directory (an
// analyzer test fixture). Fixture imports resolve through the stdlib source
// importer only.
func LoadFixtureDir(dir string) (*Program, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	prog := newProgram("", "")
	pkg, err := prog.ensure("fixture/"+filepath.Base(abs), abs)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	prog.Packages = append(prog.Packages, pkg)
	prog.Index = buildIndex(prog)
	return prog, nil
}

func newProgram(modPath, modDir string) *Program {
	// The stdlib source importer type-checks dependencies from $GOROOT/src;
	// disabling cgo selects the pure-Go variants (netgo etc.) so the import
	// never needs the cgo preprocessor.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	prog := &Program{
		Fset:       fset,
		ModulePath: modPath,
		ModuleDir:  modDir,
		byPath:     map[string]*Package{},
		loading:    map[string]bool{},
	}
	prog.stdImp = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return prog
}

// findModule walks up from dir to the enclosing go.mod and returns the
// module directory and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	for d := dir; ; {
		gm := filepath.Join(d, "go.mod")
		if data, err := os.ReadFile(gm); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					mp := strings.TrimSpace(rest)
					if unq, err := strconv.Unquote(mp); err == nil {
						mp = unq
					}
					return d, mp, nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s has no module line", gm)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// walkGoDirs visits every directory under root that contains .go files,
// skipping hidden directories, testdata and vendor trees (the go command's
// "./..." convention).
func walkGoDirs(root string, visit func(dir string)) {
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			visit(filepath.Dir(p))
		}
		return nil
	})
}

// internalDir maps a module-internal import path to its directory, or ""
// when the path is not module-internal.
func (prog *Program) internalDir(path string) string {
	if prog.ModulePath == "" {
		return ""
	}
	if path == prog.ModulePath {
		return prog.ModuleDir
	}
	if rest, ok := strings.CutPrefix(path, prog.ModulePath+"/"); ok {
		return filepath.Join(prog.ModuleDir, filepath.FromSlash(rest))
	}
	return ""
}

// ensure parses and type-checks the package at dir (memoized by import
// path). Returns (nil, nil) for directories without buildable Go files.
func (prog *Program) ensure(path, dir string) (*Package, error) {
	if p, ok := prog.byPath[path]; ok {
		return p, nil
	}
	if prog.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	prog.loading[path] = true
	defer delete(prog.loading, path)

	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		if _, ok := err.(*build.NoGoError); ok {
			return nil, nil
		}
		return nil, fmt.Errorf("analysis: %s: %w", dir, err)
	}
	if len(bp.GoFiles) == 0 {
		return nil, nil
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(prog.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			pkg.Errs = append(pkg.Errs, err)
			continue
		}
		pkg.Files = append(pkg.Files, f)
	}
	// Load module-internal imports first so the type checker finds them in
	// the cache (and so index entries exist for cross-package analyzers
	// even when the import chain is the only reference).
	for _, f := range pkg.Files {
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if d := prog.internalDir(ip); d != "" {
				if _, err := prog.ensure(ip, d); err != nil {
					return nil, err
				}
			}
		}
	}
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: &progImporter{prog},
		Error: func(err error) {
			pkg.Errs = append(pkg.Errs, err)
		},
	}
	pkg.Types, _ = conf.Check(path, prog.Fset, pkg.Files, pkg.Info)
	prog.byPath[path] = pkg
	return pkg, nil
}

// progImporter resolves module-internal imports from the program's own
// type-checked packages and defers everything else (the standard library)
// to the source importer.
type progImporter struct{ prog *Program }

func (im *progImporter) Import(path string) (*types.Package, error) {
	return im.ImportFrom(path, im.prog.ModuleDir, 0)
}

func (im *progImporter) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if d := im.prog.internalDir(path); d != "" {
		pkg, err := im.prog.ensure(path, d)
		if err != nil {
			return nil, err
		}
		if pkg == nil || pkg.Types == nil {
			return nil, fmt.Errorf("analysis: cannot import %s", path)
		}
		return pkg.Types, nil
	}
	return im.prog.stdImp.ImportFrom(path, srcDir, mode)
}

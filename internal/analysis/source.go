package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// SourcePackage is one parsed and (tolerantly) type-checked Go package,
// the unit a source pass inspects.
type SourcePackage struct {
	Fset *token.FileSet
	// Dir is the package directory on disk; PkgPath its import path.
	Dir, PkgPath string
	// Root is the module root directory, for module-relative locations.
	Root string
	// Files are the non-test source files, sorted by file name.
	Files []*ast.File
	// Info carries type information. Type checking is tolerant: imports
	// outside the module are stubbed, so objects may be missing — passes
	// must treat an unresolved type as "unknown" and stay quiet.
	Info *types.Info
}

// Pos renders a position relative to the package directory.
func (p *SourcePackage) Pos(pos token.Pos) string {
	pp := p.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(pp.Filename), pp.Line, pp.Column)
}

// Loc returns the module-relative artifact path and 1-based line/column
// for a position — the machine-readable location SARIF and the baseline
// key on. Falls back to the base name when the file is outside the root.
func (p *SourcePackage) Loc(pos token.Pos) (file string, line, col int) {
	pp := p.Fset.Position(pos)
	file = filepath.Base(pp.Filename)
	if p.Root != "" {
		if rel, err := filepath.Rel(p.Root, pp.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			file = filepath.ToSlash(rel)
		}
	}
	return file, pp.Line, pp.Column
}

// finding builds a source finding anchored at pos with both the rendered
// Where location and the structured File/Line/Col fields populated.
func (p *SourcePackage) finding(sev Severity, check string, pos token.Pos, msg, fix string) Finding {
	file, line, col := p.Loc(pos)
	return Finding{
		Severity: sev, Check: check, Node: -1,
		Where: p.Pos(pos), Message: msg, Fix: fix,
		File: file, Line: line, Col: col,
	}
}

// moduleRoot walks upward from dir to the directory holding go.mod and
// returns it together with the module path.
func moduleRoot(dir string) (root, modPath string, err error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// loader loads module-internal packages recursively and stubs everything
// else, so type checking works offline with only the standard library's
// syntax — no export data, no network, no go/packages dependency.
type loader struct {
	fset     *token.FileSet
	root     string // module root directory
	modPath  string // module path from go.mod
	pkgs     map[string]*types.Package
	loading  map[string]bool
	packages map[string]*SourcePackage // by directory
}

func newLoader(root, modPath string) *loader {
	return &loader{
		fset:     token.NewFileSet(),
		root:     root,
		modPath:  modPath,
		pkgs:     make(map[string]*types.Package),
		loading:  make(map[string]bool),
		packages: make(map[string]*SourcePackage),
	}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if rel, ok := strings.CutPrefix(path, l.modPath+"/"); ok && !l.loading[path] {
		sp, err := l.load(filepath.Join(l.root, filepath.FromSlash(rel)), path)
		if err == nil && sp != nil {
			return l.pkgs[path], nil
		}
	}
	// Outside the module (stdlib or a cycle guard): a complete empty stub.
	// Every selection through it resolves to an unknown type, which the
	// passes treat conservatively.
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	p := types.NewPackage(path, base)
	p.MarkComplete()
	l.pkgs[path] = p
	return p, nil
}

// load parses and type-checks the package in dir.
func (l *loader) load(dir, pkgPath string) (*SourcePackage, error) {
	if sp, ok := l.packages[dir]; ok {
		return sp, nil
	}
	l.loading[pkgPath] = true
	defer delete(l.loading, pkgPath)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, nil
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    l,
		Error:       func(error) {}, // tolerate holes left by stubbed imports
		FakeImportC: true,
	}
	pkg, _ := conf.Check(pkgPath, l.fset, files, info)
	if pkg != nil {
		l.pkgs[pkgPath] = pkg
	}
	sp := &SourcePackage{Fset: l.fset, Dir: dir, PkgPath: pkgPath, Root: l.root, Files: files, Info: info}
	l.packages[dir] = sp
	return sp, nil
}

// expandPatterns resolves package patterns ("./internal/...", "./cmd/etlopt")
// into package directories, relative to the current working directory.
func expandPatterns(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		dir = filepath.Clean(dir)
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			err := filepath.WalkDir(rest, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				if name := d.Name(); path != rest &&
					(name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				// A nested go.mod starts another module, which "..." does
				// not descend into (as in the go tool).
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != rest {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					add(path)
				}
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("analysis: expanding %s: %w", pat, err)
			}
			continue
		}
		if !hasGoFiles(pat) {
			return nil, fmt.Errorf("analysis: no Go files in %s", pat)
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		n := e.Name()
		if !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// AnalyzeSource loads the packages matched by the patterns and runs every
// source pass over each, returning the sorted findings.
func AnalyzeSource(patterns []string) ([]Finding, error) {
	dirs, err := expandPatterns(patterns)
	if err != nil {
		return nil, err
	}
	if len(dirs) == 0 {
		return nil, fmt.Errorf("analysis: no packages matched %v", patterns)
	}
	root, modPath, err := moduleRoot(dirs[0])
	if err != nil {
		return nil, err
	}
	l := newLoader(root, modPath)
	var out []Finding
	for _, dir := range dirs {
		abs, err := filepath.Abs(dir)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(root, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("analysis: %s is outside module %s", dir, modPath)
		}
		pkgPath := modPath
		if rel != "." {
			pkgPath = modPath + "/" + filepath.ToSlash(rel)
		}
		sp, err := l.load(abs, pkgPath)
		if err != nil {
			return nil, err
		}
		if sp == nil {
			continue
		}
		for _, p := range passes {
			if p.source != nil {
				out = append(out, p.source(sp)...)
			}
		}
	}
	Sort(out)
	return out, nil
}

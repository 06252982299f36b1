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
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the import path ("xydiff/internal/vstore").
	Path string
	// mod is the module path the package belongs to ("xydiff");
	// analyzers use it to express module-relative layer rules.
	mod string
	// dir is the directory the sources were read from, and modDir the
	// module's root directory.
	dir    string
	modDir string
	fset   *token.FileSet
	// files are the parsed non-test sources, sorted by file name.
	files []*ast.File
	// tpkg is the checked package object (possibly marked incomplete
	// when sources had type errors).
	tpkg *types.Package
	// info holds the checker's fact tables for files.
	info *types.Info
	// TypeErrors collects type-checking problems. The analyzers still
	// run — they degrade to syntactic checks where type facts are
	// missing — but the driver surfaces these so a broken build cannot
	// silently weaken the gate.
	TypeErrors []error
}

// Loader parses and type-checks packages of a single module. Imports
// within the module are resolved recursively from source; imports
// outside it (the standard library) are resolved through the
// toolchain's source importer. No compiled artifacts are needed.
type Loader struct {
	// modPath and modDir anchor the module ("xydiff" at the repo root).
	modPath string
	modDir  string

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*Package
}

// newLoader returns a loader for the module rooted at modDir.
func newLoader(modPath, modDir string) *Loader {
	fset := token.NewFileSet()
	return &Loader{
		modPath: modPath,
		modDir:  modDir,
		fset:    fset,
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:   make(map[string]*Package),
	}
}

// LoaderForDir locates the enclosing module of dir (by walking up to
// go.mod) and returns a loader for it.
func LoaderForDir(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for cur := abs; ; {
		data, err := os.ReadFile(filepath.Join(cur, "go.mod"))
		if err == nil {
			path := modulePath(string(data))
			if path == "" {
				return nil, fmt.Errorf("analysis: no module line in %s", filepath.Join(cur, "go.mod"))
			}
			return newLoader(path, cur), nil
		}
		parent := filepath.Dir(cur)
		if parent == cur {
			return nil, fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		cur = parent
	}
}

// modulePath extracts the module path from go.mod content.
func modulePath(gomod string) string {
	for _, line := range strings.Split(gomod, "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Load resolves the patterns (import paths relative to the module,
// "./..." for everything, "./x/..." for a subtree, "./x" for one
// package) into loaded packages, sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		root := filepath.Join(l.modDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			dirs[root] = true
			continue
		}
		if err := packageDirs(root, func(dir string) { dirs[dir] = true }); err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		hasGo, err := containsGoFiles(dir)
		if err != nil {
			return nil, err
		}
		if !hasGo {
			continue
		}
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// packageDirs visits root and every directory below it that "./..."
// covers: hidden, underscore, testdata and vendor directories are
// skipped, as the go command does.
func packageDirs(root string, visit func(dir string)) error {
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		visit(path)
		return nil
	})
	if err != nil {
		return fmt.Errorf("analysis: walk %s: %w", root, err)
	}
	return nil
}

func containsGoFiles(dir string) (bool, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true, nil
		}
	}
	return false, nil
}

// importPathFor maps a directory under the module root to its import
// path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.modDir, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module %s", dir, l.modDir)
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// loadDir parses and type-checks the package in dir (cached).
func (l *Loader) loadDir(dir string) (*Package, error) {
	path, err := l.importPathFor(dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := l.cache[path]; ok {
		if pkg.tpkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return pkg, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Build constraints as an untagged go build reads them.
		if ok, err := build.Default.MatchFile(dir, name); err == nil && !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
	}
	pkg := &Package{Path: path, mod: l.modPath, dir: dir, modDir: l.modDir, fset: l.fset, files: files}
	// Register before checking so import cycles terminate (they
	// surface as type errors rather than infinite recursion).
	l.cache[path] = pkg
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: (*loaderImporter)(l),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.tpkg = tpkg
	pkg.info = info
	return pkg, nil
}

// loaderImporter adapts the loader to types.Importer: module-internal
// paths are loaded from source recursively, everything else goes to the
// toolchain's source importer.
type loaderImporter Loader

func (im *loaderImporter) Import(path string) (*types.Package, error) {
	l := (*Loader)(im)
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		pkg, err := l.loadDir(filepath.Join(l.modDir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, err
		}
		return pkg.tpkg, nil
	}
	return l.std.ImportFrom(path, l.modDir, 0)
}

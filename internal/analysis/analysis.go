// Package analysis is xydiff's domain-specific static-analysis suite.
// It encodes, as mechanical checks over the go/ast + go/types view of
// the code, the invariants the change-control stack depends on: no
// panics escaping library packages, balanced per-document lock usage in
// the store, context propagation through the diff and the server,
// errors wrapped as they cross package boundaries, the durable-write
// ordering of the segment journals (append + fsync happens-before the
// in-memory commit and the snapshot rename), production packages that
// hold only code production reaches (testonly), and exported names that
// another package uses (localexport).
//
// The suite is built only on the standard toolchain packages (go/ast,
// go/parser, go/token, go/types) — no external analysis framework — and
// is driven by cmd/xyvet, which `make xyvet` and the vet stage of
// `make check` run over the whole module.
//
// A finding can be suppressed at a specific line with a directive
// comment on that line or the line directly above it:
//
//	//xyvet:allow <analyzer>[,<analyzer>...] -- reason
//
// The analyzer list may be "all". The reason after "--" is optional but
// encouraged; suppressions are deliberate, reviewed exceptions (for
// example the Must* compile-or-panic idiom, or a function that hands a
// locked structure to its caller).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name is the short identifier used in reports and in
	// //xyvet:allow directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer
	// encodes.
	Doc string
	// run inspects one package and reports findings through the pass.
	run func(*analyzerPass)
}

// analyzerPass carries one analyzed package to an analyzer run.
type analyzerPass struct {
	analyzer *Analyzer
	fset     *token.FileSet
	files    []*ast.File
	pkg      *types.Package
	// path is the import path of the package under analysis.
	path string
	// mod is the module path, so analyzers can reason about
	// module-relative package layers.
	mod string
	// info holds the type-checker results for the package. Fields are
	// always non-nil maps, but entries may be missing when the package
	// had type errors; analyzers must degrade gracefully.
	info *types.Info

	index   *moduleIndex
	allowed directives
	report  func(Diagnostic)
}

// reportf records a finding at pos.
func (p *analyzerPass) reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.analyzer.Name,
		Position: p.fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// allowedAt reports whether a directive covers a finding of the
// running analyzer at pos, and marks that directive used.
func (p *analyzerPass) allowedAt(pos token.Pos) bool {
	return p.allowed.allows(p.fset.Position(pos), p.analyzer.Name)
}

// calleeDecl resolves the function or method a call invokes to its
// declaration, when the callee is declared in one of the packages of
// the current Run. Calls through function values, unresolvable
// identifiers, and callees outside the analyzed package set return
// nil; interprocedural analyzers must treat nil as "cannot prove" and
// stay silent.
func (p *analyzerPass) calleeDecl(call *ast.CallExpr) *ast.FuncDecl {
	if p.index == nil {
		return nil
	}
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	obj := p.info.Uses[id]
	if obj == nil {
		obj = p.info.Defs[id]
	}
	if obj == nil {
		return nil
	}
	return p.index.funcs[obj]
}

// moduleIndex maps every function and method object declared in the
// analyzed package set to its declaration, giving analyzers a
// module-wide (cross-package) view for interprocedural checks like
// goroleak's spawned-callee resolution.
type moduleIndex struct {
	funcs map[types.Object]*ast.FuncDecl
	// facts is nil unless testonly or localexport runs over the whole
	// module.
	facts *moduleFacts
}

func buildModuleIndex(pkgs []*Package) *moduleIndex {
	idx := &moduleIndex{funcs: make(map[types.Object]*ast.FuncDecl)}
	for _, pkg := range pkgs {
		for _, f := range pkg.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Name == nil {
					continue
				}
				if obj := pkg.info.Defs[fn.Name]; obj != nil {
					idx.funcs[obj] = fn
				}
			}
		}
	}
	return idx
}

// typeOf returns the type of e, or nil when the checker has no entry
// for it (syntax the type checker rejected).
func (p *analyzerPass) typeOf(e ast.Expr) types.Type {
	if tv, ok := p.info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := p.info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Diagnostic is one finding, positioned for editors (file:line:col).
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"-"`
	Message  string         `json:"message"`

	// Flattened position for the machine-readable -json output.
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

// String renders the go-vet-style single-line form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Position, d.Analyzer, d.Message)
}

// Run applies every analyzer to every package, filters findings
// suppressed by //xyvet:allow directives, and returns the rest sorted
// by position. Packages are analyzed in parallel on up to GOMAXPROCS
// goroutines — analyzers only read the shared AST and type facts — and
// the sorted merge keeps the output identical for every worker count.
// When the staleallow analyzer is part of the set, directives that
// suppressed no finding of the analyzers that ran are themselves
// reported.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	idx := buildModuleIndex(pkgs)
	running := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		running[a.Name] = true
	}
	stale := running[staleAllow.Name]
	if running[testOnly.Name] || running[localExport.Name] {
		idx.facts = buildModuleFacts(pkgs, idx.funcs)
	}
	results := make([][]Diagnostic, len(pkgs))
	runPkg := func(i int) {
		results[i] = runPackage(pkgs[i], analyzers, idx, running, stale)
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(pkgs) {
		workers = len(pkgs)
	}
	if workers <= 1 {
		for i := range pkgs {
			runPkg(i)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(pkgs) {
						return
					}
					runPkg(i)
				}
			}()
		}
		wg.Wait()
	}
	var diags []Diagnostic
	for _, r := range results {
		diags = append(diags, r...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// runPackage applies the analyzers to one package. It owns the
// package's directive table, so the used-tracking behind the stale
// check never races across packages.
func runPackage(pkg *Package, analyzers []*Analyzer, idx *moduleIndex, running map[string]bool, stale bool) []Diagnostic {
	var diags []Diagnostic
	allowed := collectDirectives(pkg)
	for _, a := range analyzers {
		if a.run == nil {
			continue
		}
		pass := &analyzerPass{
			analyzer: a,
			fset:     pkg.fset,
			files:    pkg.files,
			pkg:      pkg.tpkg,
			path:     pkg.Path,
			mod:      pkg.mod,
			info:     pkg.info,
			index:    idx,
			allowed:  allowed,
			report: func(d Diagnostic) {
				if allowed.allows(d.Position, d.Analyzer) {
					return
				}
				d.File = d.Position.Filename
				d.Line = d.Position.Line
				d.Column = d.Position.Column
				diags = append(diags, d)
			},
		}
		a.run(pass)
	}
	if stale {
		diags = append(diags, staleFindings(allowed, running)...)
	}
	return diags
}

// directiveKey identifies one source line.
type directiveKey struct {
	file string
	line int
}

// directive is one //xyvet:allow comment: the analyzers it names, its
// own position, and whether it suppressed at least one finding during
// the run (the stale check reports the ones that did not).
type directive struct {
	pos   token.Position
	names map[string]bool
	used  bool
}

// directives maps source lines to the suppression declared there.
type directives map[directiveKey]*directive

// allows reports whether a finding by analyzer at pos is suppressed: a
// directive on the same line or the line directly above covers it. A
// match marks the directive used.
func (ds directives) allows(pos token.Position, analyzer string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d, ok := ds[directiveKey{pos.Filename, line}]; ok {
			if d.names["all"] || d.names[analyzer] {
				d.used = true
				return true
			}
		}
	}
	return false
}

const directivePrefix = "//xyvet:allow"

// collectDirectives scans every comment of the package for
// //xyvet:allow directives.
func collectDirectives(pkg *Package) directives {
	ds := make(directives)
	for _, f := range pkg.files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				// Everything after "--" is a human-readable reason.
				names, _, _ := strings.Cut(text, "--")
				pos := pkg.fset.Position(c.Pos())
				key := directiveKey{pos.Filename, pos.Line}
				d := ds[key]
				if d == nil {
					d = &directive{pos: pos, names: make(map[string]bool)}
					ds[key] = d
				}
				for _, name := range strings.Split(names, ",") {
					if name = strings.TrimSpace(name); name != "" {
						d.names[name] = true
					}
				}
			}
		}
	}
	return ds
}

// All returns the full xyvet analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		noPanic,
		lockBalance,
		ctxFlow,
		errWrap,
		segOrder,
		goroLeak,
		poolBalance,
		timerLeak,
		depBound,
		testOnly,
		localExport,
		staleAllow,
	}
}

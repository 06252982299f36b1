package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// TestOnly keeps production packages to production code: a function or
// method of a non-main package that no non-test file of the module
// references is compiled into every binary that imports it, yet only
// tests reach it. Delete it, move it into a test file or a *test
// package, or allow a reference implementation that needs unexported
// state with the reason. Uses inside the function's own body do not
// count. Exempt are the root package (the library surface), methods of
// the types it re-exports by alias, *test packages, and methods whose
// name an interface of the module or of an imported standard-library
// package declares, since calls through an interface do not name them.
// Only a run over the whole module can decide; a partial run is silent.
var TestOnly = &Analyzer{
	Name: "testonly",
	Doc:  "every function and method of a library package is referenced by a non-test file of the module",
	Run:  runTestOnly,
}

// testOnlyFacts are the module-wide tables testonly decides by.
type testOnlyFacts struct {
	used       map[*types.Func]bool
	ifaceNames map[string]bool
	aliased    map[*types.TypeName]bool
}

func runTestOnly(pass *Pass) {
	facts := pass.index.testonly
	name := pass.Pkg.Name()
	if facts == nil || name == "main" || pass.Path == pass.Mod || strings.HasSuffix(name, "test") {
		return
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok || facts.used[fn] {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil && (facts.ifaceNames[fn.Name()] || facts.aliased[namedOf(recv.Type())]) {
				continue
			}
			pass.Reportf(fd.Name.Pos(), "%s is referenced only by tests: delete it, move it to a test file or a *test package, or allow it with %s testonly -- reason", fn.Name(), directivePrefix)
		}
	}
}

// buildTestOnlyFacts collects the module's references, interface method
// names and root aliases; nil unless pkgs is the whole module.
func buildTestOnlyFacts(pkgs []*Package, funcs map[types.Object]*ast.FuncDecl) *testOnlyFacts {
	if !wholeModule(pkgs) {
		return nil
	}
	facts := &testOnlyFacts{
		used: make(map[*types.Func]bool),
		// errors.Is, As and Unwrap call these through interfaces that
		// function bodies declare, which no package scope shows.
		ifaceNames: map[string]bool{"Is": true, "As": true, "Unwrap": true},
		aliased:    make(map[*types.TypeName]bool),
	}
	scopes := []*types.Scope{types.Universe}
	for _, pkg := range pkgs {
		for id, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				fn = fn.Origin()
				if fd := funcs[fn]; fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End() {
					facts.used[fn] = true
				}
			}
		}
		scopes = append(scopes, pkg.Types.Scope())
		for _, imp := range pkg.Types.Imports() {
			scopes = append(scopes, imp.Scope())
		}
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < iface.NumMethods(); i++ {
					facts.ifaceNames[iface.Method(i).Name()] = true
				}
			}
			if named := namedOf(tn.Type()); named != nil && tn.IsAlias() && tn.Pkg() != nil && tn.Pkg().Path() == pkgs[0].Mod {
				facts.aliased[named] = true
			}
		}
	}
	return facts
}

// namedOf returns the type name behind t, a method receiver or alias
// target, through one pointer; nil for unnamed types.
func namedOf(t types.Type) *types.TypeName {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := types.Unalias(t).(*types.Named); ok {
		return n.Obj()
	}
	return nil
}

// wholeModule reports whether pkgs holds every package of its module.
func wholeModule(pkgs []*Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.Dir] = true
	}
	whole := true
	err := packageDirs(pkgs[0].ModDir, func(dir string) {
		if hasGo, err := containsGoFiles(dir); err != nil || hasGo && !loaded[dir] {
			whole = false
		}
	})
	return err == nil && whole
}

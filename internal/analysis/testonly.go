package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// testOnly keeps production packages to production code: a function or
// method of a non-main package that no non-test file of the module
// references is compiled into every binary that imports it, yet only
// tests reach it. Delete it, move it into a test file or a *test
// package, or allow a reference implementation that needs unexported
// state with the reason. Uses inside the function's own body do not
// count. Exempt are the root package (the library surface), methods of
// the types its API reaches, *test packages, and methods whose receiver
// implements an interface that declares them, since calls through an
// interface do not name the method. Only a run over the whole module
// can decide; a partial run is silent.
var testOnly = &Analyzer{
	Name: "testonly",
	Doc:  "every function and method of a library package is referenced by a non-test file of the module",
	run:  runTestOnly,
}

// moduleFacts are the module-wide tables testonly and localexport
// decide by, built from one walk over every package's uses.
type moduleFacts struct {
	// mod is the module path; root stops at the module's edge.
	mod string
	// used holds the functions and methods some non-test file names
	// outside the function's own body.
	used map[*types.Func]bool
	// outside holds the objects named by a package other than their own.
	outside map[types.Object]bool
	// ifaces lists, by method name, the interfaces declaring it: those
	// of the module's and imported packages' scopes and every interface
	// type the module writes, in function bodies and type assertions too.
	ifaces map[string][]*types.Interface
	// root holds what the root package's API reaches: its aliased
	// types, the types in its exported signatures, and transitively
	// their exported methods, fields and the types those name.
	root map[types.Object]bool
	// signature holds the module's named types that appear in the type
	// of an object another package names.
	signature map[*types.TypeName]bool
}

// libraryPackage reports whether the pass holds a package the two
// whole-module analyzers judge: not main, not the root, not a *test
// package, and only when the whole module was loaded.
func libraryPackage(pass *analyzerPass) bool {
	name := pass.pkg.Name()
	return pass.index.facts != nil && name != "main" && pass.path != pass.mod && !strings.HasSuffix(name, "test")
}

func runTestOnly(pass *analyzerPass) {
	if !libraryPackage(pass) {
		return
	}
	facts := pass.index.facts
	for _, f := range pass.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" {
				continue
			}
			fn, ok := pass.info.Defs[fd.Name].(*types.Func)
			if !ok || facts.used[fn] || facts.root[fn] || facts.implementsDeclaring(fn) {
				continue
			}
			pass.reportf(fd.Name.Pos(), "%s is referenced only by tests: delete it, move it to a test file or a *test package, or allow it with %s testonly -- reason", fn.Name(), directivePrefix)
		}
	}
}

// buildModuleFacts collects the module's references, interfaces and
// root-reachable API; nil unless pkgs is the whole module.
func buildModuleFacts(pkgs []*Package, funcs map[types.Object]*ast.FuncDecl) *moduleFacts {
	if !wholeModule(pkgs) {
		return nil
	}
	facts := &moduleFacts{
		mod:       pkgs[0].mod,
		used:      make(map[*types.Func]bool),
		outside:   make(map[types.Object]bool),
		ifaces:    make(map[string][]*types.Interface),
		root:      make(map[types.Object]bool),
		signature: make(map[*types.TypeName]bool),
	}
	// errors.Is, As and Unwrap call these through interfaces declared
	// in function bodies of the standard library, which no scope shows.
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	facts.addInterface(methodInterface("Is", []types.Type{errType}, []types.Type{types.Typ[types.Bool]}))
	facts.addInterface(methodInterface("As", []types.Type{anyType}, []types.Type{types.Typ[types.Bool]}))
	facts.addInterface(methodInterface("Unwrap", nil, []types.Type{errType}))
	facts.addInterface(methodInterface("Unwrap", nil, []types.Type{types.NewSlice(errType)}))
	scopes := []*types.Scope{types.Universe}
	seen := make(map[*types.Package]bool)
	var root *types.Package
	for _, pkg := range pkgs {
		if pkg.Path == pkg.mod {
			root = pkg.tpkg
		}
		for id, obj := range pkg.info.Uses {
			obj = origin(obj)
			if obj.Pkg() != nil && obj.Pkg() != pkg.tpkg {
				facts.outside[obj] = true
			}
			if fn, ok := obj.(*types.Func); ok {
				if fd := funcs[fn]; fd == nil || id.Pos() < fd.Pos() || id.Pos() >= fd.End() {
					facts.used[fn] = true
				}
			}
		}
		for _, tv := range pkg.info.Types {
			if iface, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
				facts.addInterface(iface)
			}
		}
		for _, p := range append(pkg.tpkg.Imports(), pkg.tpkg) {
			if !seen[p] {
				seen[p] = true
				scopes = append(scopes, p.Scope())
			}
		}
	}
	for _, scope := range scopes {
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					facts.addInterface(iface)
				}
			}
		}
	}
	if root != nil {
		for _, name := range root.Scope().Names() {
			if obj := root.Scope().Lookup(name); obj.Exported() {
				facts.reach(obj.Type())
			}
		}
	}
	for obj := range facts.outside {
		if _, ok := obj.(*types.TypeName); !ok {
			facts.inSignature(obj.Type())
		}
	}
	return facts
}

// methodInterface builds interface{ name(params) results }.
func methodInterface(name string, params, results []types.Type) *types.Interface {
	tuple := func(ts []types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(0, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
	return types.NewInterfaceType([]*types.Func{types.NewFunc(0, nil, name, sig)}, nil).Complete()
}

func (f *moduleFacts) addInterface(iface *types.Interface) {
	for i := 0; i < iface.NumMethods(); i++ {
		name := iface.Method(i).Name()
		f.ifaces[name] = append(f.ifaces[name], iface)
	}
}

// implementsDeclaring reports whether fn is a method whose receiver
// type implements an interface that declares fn's name, so a call
// through that interface reaches fn without naming it.
func (f *moduleFacts) implementsDeclaring(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named, ok := types.Unalias(deref(recv.Type())).(*types.Named)
	if !ok || named.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range f.ifaces[fn.Name()] {
		if types.Implements(ptr, iface) {
			return true
		}
	}
	return false
}

// reach marks what the root package's API reaches through t.
func (f *moduleFacts) reach(t types.Type) {
	walkType(t, func(named *types.Named) {
		obj := named.Obj()
		if f.root[obj] || !inModule(obj, f.mod) {
			return
		}
		f.root[obj] = true
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				f.root[m.Origin()] = true
				f.reach(m.Type())
			}
		}
		f.reach(named.Underlying())
	}, func(member types.Object) {
		f.root[origin(member)] = true
	})
}

// inSignature marks the named types that t names, without entering
// their underlying types.
func (f *moduleFacts) inSignature(t types.Type) {
	walkType(t, func(named *types.Named) {
		f.signature[named.Obj()] = true
	}, func(types.Object) {})
}

// walkType visits the named types t is built from, and the exported
// fields and methods of the unnamed structs and interfaces on the way;
// it does not enter a named type, which is left to visitNamed.
func walkType(t types.Type, visitNamed func(*types.Named), visitMember func(types.Object)) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		visitNamed(t)
		for i := 0; i < t.TypeArgs().Len(); i++ {
			walkType(t.TypeArgs().At(i), visitNamed, visitMember)
		}
	case *types.Map:
		walkType(t.Key(), visitNamed, visitMember)
		walkType(t.Elem(), visitNamed, visitMember)
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		walkType(t.Elem(), visitNamed, visitMember)
	case *types.Signature:
		for _, tuple := range []*types.Tuple{t.Params(), t.Results()} {
			for i := 0; i < tuple.Len(); i++ {
				walkType(tuple.At(i).Type(), visitNamed, visitMember)
			}
		}
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if field := t.Field(i); field.Exported() || field.Embedded() {
				visitMember(field)
				walkType(field.Type(), visitNamed, visitMember)
			}
		}
	case *types.Interface:
		for i := 0; i < t.NumMethods(); i++ {
			if m := t.Method(i); m.Exported() {
				visitMember(m)
				walkType(m.Type(), visitNamed, visitMember)
			}
		}
	}
}

// origin maps an object of an instantiated generic type or function to
// the object its declaration defines.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// inModule reports whether obj is declared in module mod.
func inModule(obj types.Object, mod string) bool {
	if obj.Pkg() == nil {
		return false
	}
	path := obj.Pkg().Path()
	return path == mod || strings.HasPrefix(path, mod+"/")
}

// deref strips one pointer.
func deref(t types.Type) types.Type {
	if p, ok := types.Unalias(t).(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// wholeModule reports whether pkgs holds every package of its module.
func wholeModule(pkgs []*Package) bool {
	if len(pkgs) == 0 {
		return false
	}
	loaded := make(map[string]bool, len(pkgs))
	for _, pkg := range pkgs {
		loaded[pkg.dir] = true
	}
	whole := true
	err := packageDirs(pkgs[0].modDir, func(dir string) {
		if hasGo, err := containsGoFiles(dir); err != nil || hasGo && !loaded[dir] {
			whole = false
		}
	})
	return err == nil && whole
}

package analysis

import (
	"go/types"
)

// localExport keeps the edges between packages to the ones in use: an
// exported name of a library package — func, type, var, const, method
// or struct field — that no non-test file of another package names is
// surface nothing needs, and a caller could start depending on it
// without anyone deciding so. Unexport it. Exempt are what the root
// package's API reaches (its aliased types, the types in its exported
// signatures and fields, and transitively theirs), methods whose
// receiver implements an interface that declares them, struct fields
// that carry a tag (encoding/json reads those by name), embedded
// fields, which are named by their type, and types in the type of a
// name another package uses, so no exported API hands out an
// unexported type. A directive on a type's declaration covers its
// fields and methods too. It judges the packages testonly judges, from
// the same module-wide facts, and a partial run is silent.
var localExport = &Analyzer{
	Name: "localexport",
	Doc:  "every exported name of a library package is named by a non-test file of another package",
	run:  runLocalExport,
}

func runLocalExport(pass *analyzerPass) {
	if !libraryPackage(pass) {
		return
	}
	facts := pass.index.facts
	// report flags obj unless it is used; a directive on the declaration
	// of owner, the type obj is a field or method of, covers obj too.
	// A defined type shares the fields of the struct it is defined by,
	// so seen keeps each field to one finding.
	seen := make(map[types.Object]bool)
	report := func(obj types.Object, kind string, owner *types.TypeName) {
		if !obj.Exported() || facts.outside[obj] || facts.root[obj] || seen[obj] || owner != nil && pass.allowedAt(owner.Pos()) {
			return
		}
		seen[obj] = true
		pass.reportf(obj.Pos(), "%s %s is exported, but no other package names it: unexport it, or allow it with %s localexport -- reason", kind, obj.Name(), directivePrefix)
	}
	scope := pass.pkg.Scope()
	for _, name := range scope.Names() {
		switch obj := scope.Lookup(name).(type) {
		case *types.Func:
			report(obj, "func", nil)
		case *types.Var:
			report(obj, "var", nil)
		case *types.Const:
			report(obj, "const", nil)
		case *types.TypeName:
			if !facts.signature[obj] {
				report(obj, "type", nil)
			}
			named, ok := obj.Type().(*types.Named)
			if !ok || obj.IsAlias() {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !facts.implementsDeclaring(m) {
					report(m, "method", obj)
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				reportFields(st, func(field *types.Var) { report(field, "field", obj) })
			}
		}
	}
}

// reportFields passes report the untagged, non-embedded fields of st and
// of the unnamed structs nested in it.
func reportFields(st *types.Struct, report func(*types.Var)) {
	for i := 0; i < st.NumFields(); i++ {
		field := st.Field(i)
		if nested, ok := deref(field.Type()).(*types.Struct); ok {
			reportFields(nested, report)
		}
		if !field.Embedded() && st.Tag(i) == "" {
			report(field)
		}
	}
}

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// noPanic enforces the invariant, established when delta.Apply learned
// to survive corrupt deltas, that no panic escapes library code: the
// change-control service must degrade to an error response, never to a
// crashed process. Library packages (everything that is not a main
// package) must not call panic, log.Fatal*, log.Panic* or os.Exit.
// Deliberate exceptions — the Must* compile-or-panic idiom — carry an
// //xyvet:allow nopanic directive.
var noPanic = &Analyzer{
	Name: "nopanic",
	Doc:  "no panic/log.Fatal/os.Exit in library (non-main) packages",
	run:  runNoPanic,
}

func runNoPanic(pass *analyzerPass) {
	if pass.pkg != nil && pass.pkg.Name() == "main" {
		return // commands and examples may exit or fail fatally
	}
	for _, f := range pass.files {
		if f.Name.Name == "main" {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				if fun.Name == "panic" && isBuiltin(pass, fun) {
					pass.reportf(call.Pos(), "panic in library code; return an error instead (or annotate a Must* idiom with %s nopanic)", directivePrefix)
				}
			case *ast.SelectorExpr:
				pkg, fn := packageFunc(pass, fun)
				switch {
				case pkg == "log" && (strings.HasPrefix(fn, "Fatal") || strings.HasPrefix(fn, "Panic")):
					pass.reportf(call.Pos(), "log.%s terminates the process from library code; return an error instead", fn)
				case pkg == "os" && fn == "Exit":
					pass.reportf(call.Pos(), "os.Exit in library code; return an error and let the command decide")
				}
			}
			return true
		})
	}
}

// isBuiltin reports whether id resolves to the universe-scope builtin
// of the same name (i.e. is not shadowed by a local declaration). When
// type information is missing it assumes the builtin.
func isBuiltin(pass *analyzerPass, id *ast.Ident) bool {
	obj := pass.info.Uses[id]
	if obj == nil {
		return true
	}
	_, ok := obj.(*types.Builtin)
	return ok
}

// packageFunc resolves a selector call like log.Fatalf to its package
// name ("log") and function name ("Fatalf"). It returns "" when the
// selector base is not a package identifier (a method call).
func packageFunc(pass *analyzerPass, sel *ast.SelectorExpr) (pkg, fn string) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", sel.Sel.Name
	}
	if obj := pass.info.Uses[id]; obj != nil {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path(), sel.Sel.Name
		}
		return "", sel.Sel.Name // a variable, not a package
	}
	// No type info: fall back to the spelled name.
	return id.Name, sel.Sel.Name
}

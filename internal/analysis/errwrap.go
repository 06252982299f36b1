package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"
)

// errWrap enforces the error discipline the repository's typed errors
// (the storage engine's, declared and returned by internal/vstore)
// depend on: errors crossing a package boundary keep their chain, and
// no error is dropped on the floor.
// Concretely:
//
//   - a call whose (last) result is an error must not appear as a bare
//     statement — handle it, return it, or discard it visibly with
//     `_ =` (deferred calls are exempt: Go offers no good way to route
//     their errors, and the repo's defers are best-effort cleanups);
//   - fmt.Errorf must format wrapped errors with %w, not %v/%s/%q,
//     so errors.Is/As keep working across packages;
//   - errors.New(fmt.Sprintf(...)) is fmt.Errorf spelled expensively.
//
// Print-family fmt calls and the never-failing writers (bytes.Buffer,
// strings.Builder) are exempt from the discard rule.
var errWrap = &Analyzer{
	Name: "errwrap",
	Doc:  "no silently discarded error results; wrapped errors use %w",
	run:  runErrWrap,
}

func runErrWrap(pass *analyzerPass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.ExprStmt:
				if call, ok := node.X.(*ast.CallExpr); ok {
					checkDiscardedError(pass, call)
				}
			case *ast.CallExpr:
				checkErrorfWrap(pass, node)
				checkErrorsNewSprintf(pass, node)
			}
			return true
		})
	}
}

// errorType is the universe error interface.
var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t is (or implements) error.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	if t.String() == "error" {
		return true
	}
	return types.Implements(t, errorType)
}

// checkDiscardedError flags a statement-position call whose last result
// is an error.
func checkDiscardedError(pass *analyzerPass, call *ast.CallExpr) {
	t := pass.typeOf(call)
	if t == nil {
		return
	}
	var last types.Type
	switch rt := t.(type) {
	case *types.Tuple:
		if rt.Len() == 0 {
			return
		}
		last = rt.At(rt.Len() - 1).Type()
	default:
		last = rt
	}
	if !isErrorType(last) {
		return
	}
	if discardExempt(pass, call) {
		return
	}
	pass.reportf(call.Pos(), "error result of %s discarded; handle it, return it, or assign to _ explicitly", callName(call))
}

// discardExempt lists the calls whose error results are conventionally
// ignored: fmt print functions and in-memory writers that document they
// never fail.
func discardExempt(pass *analyzerPass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if pkg, fn := packageFunc(pass, sel); pkg == "fmt" &&
		(strings.HasPrefix(fn, "Print") || strings.HasPrefix(fn, "Fprint")) {
		return true
	}
	recv := pass.typeOf(sel.X)
	if recv == nil {
		return false
	}
	s := recv.String()
	return s == "*bytes.Buffer" || s == "bytes.Buffer" || s == "*strings.Builder" || s == "strings.Builder"
}

// callName renders a compact name for diagnostics.
func callName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return types.ExprString(fun)
	default:
		return "call"
	}
}

// checkErrorfWrap verifies that every error-typed argument of a
// fmt.Errorf call is formatted with %w.
func checkErrorfWrap(pass *analyzerPass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pkg, fn := packageFunc(pass, sel); pkg != "fmt" || fn != "Errorf" {
		return
	}
	if len(call.Args) < 2 {
		return
	}
	format, ok := stringConstant(pass, call.Args[0])
	if !ok {
		return
	}
	verbs, clean := formatVerbs(format)
	if !clean || len(verbs) != len(call.Args)-1 {
		return // indexed or malformed format: stay silent
	}
	for i, verb := range verbs {
		arg := call.Args[i+1]
		if !isErrorType(pass.typeOf(arg)) {
			continue
		}
		switch verb {
		case 'v', 's', 'q':
			pass.reportf(arg.Pos(), "error formatted with %%%c loses the chain for errors.Is/As; use %%w", verb)
		}
	}
}

// checkErrorsNewSprintf flags errors.New(fmt.Sprintf(...)).
func checkErrorsNewSprintf(pass *analyzerPass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	if pkg, fn := packageFunc(pass, sel); pkg != "errors" || fn != "New" {
		return
	}
	if len(call.Args) != 1 {
		return
	}
	inner, ok := call.Args[0].(*ast.CallExpr)
	if !ok {
		return
	}
	if innerSel, ok := inner.Fun.(*ast.SelectorExpr); ok {
		if pkg, fn := packageFunc(pass, innerSel); pkg == "fmt" && fn == "Sprintf" {
			pass.reportf(call.Pos(), "errors.New(fmt.Sprintf(...)); use fmt.Errorf directly")
		}
	}
}

// stringConstant resolves e to a constant string (literal or typed
// constant known to the checker).
func stringConstant(pass *analyzerPass, e ast.Expr) (string, bool) {
	if lit, ok := e.(*ast.BasicLit); ok && lit.Kind.String() == "STRING" {
		s, err := strconv.Unquote(lit.Value)
		if err != nil {
			return "", false
		}
		return s, true
	}
	if tv, ok := pass.info.Types[e]; ok && tv.Value != nil && tv.Value.Kind().String() == "String" {
		return constantStringValue(tv.Value.ExactString())
	}
	return "", false
}

func constantStringValue(exact string) (string, bool) {
	s, err := strconv.Unquote(exact)
	if err != nil {
		return "", false
	}
	return s, true
}

// formatVerbs extracts the verb letters of a Printf-style format in
// order. clean is false when the format uses explicit argument indexes
// ([n]) or anything else that breaks the one-verb-per-argument mapping.
func formatVerbs(format string) (verbs []rune, clean bool) {
	for i := 0; i < len(format); i++ {
		if format[i] != '%' {
			continue
		}
		i++
		if i >= len(format) {
			return verbs, false
		}
		if format[i] == '%' {
			continue
		}
		// Skip flags, width, precision.
		for i < len(format) && strings.ContainsRune("+-# 0123456789.", rune(format[i])) {
			i++
		}
		if i >= len(format) {
			return verbs, false
		}
		if format[i] == '[' {
			return verbs, false // explicit index: bail out
		}
		if format[i] == '*' {
			verbs = append(verbs, '*') // width argument consumes one arg
			i++
			for i < len(format) && strings.ContainsRune("0123456789.", rune(format[i])) {
				i++
			}
			if i >= len(format) {
				return verbs, false
			}
		}
		verbs = append(verbs, rune(format[i]))
	}
	return verbs, true
}

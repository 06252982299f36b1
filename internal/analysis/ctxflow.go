package analysis

import (
	"go/ast"
)

// ctxFlow enforces the context discipline diff.DiffDetailedContext and the
// server introduced: cancellation flows from the request into the diff
// phases as an explicit parameter, never through stored state. A
// context.Context must be a function's first parameter, must be
// forwarded (not ignored), must not be recreated from
// context.Background/TODO inside a function that already received one,
// and must never be stored in a struct — a stored context outlives its
// request and silently detaches deadlines from the work they bound.
var ctxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context.Context is first parameter, forwarded, never stored in a struct or replaced by Background/TODO",
	run:  runCtxFlow,
}

func runCtxFlow(pass *analyzerPass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.StructType:
				checkCtxFields(pass, node)
			case *ast.FuncDecl:
				checkCtxFunc(pass, node.Type, node.Body)
			case *ast.FuncLit:
				checkCtxFunc(pass, node.Type, node.Body)
			case *ast.AssignStmt:
				checkCtxStore(pass, node)
			}
			return true
		})
	}
}

// isContextType reports whether e denotes context.Context.
func isContextType(pass *analyzerPass, e ast.Expr) bool {
	if t := pass.typeOf(e); t != nil {
		return t.String() == "context.Context"
	}
	// Fall back to the spelled selector when type info is missing.
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Context" {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == "context"
}

// checkCtxFields flags struct fields of type context.Context.
func checkCtxFields(pass *analyzerPass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if isContextType(pass, field.Type) {
			pass.reportf(field.Pos(), "context.Context stored in a struct; pass it as the first parameter of each method that needs it")
		}
	}
}

// checkCtxFunc flags a ctx parameter that is not first, and a ctx
// parameter the body never forwards.
func checkCtxFunc(pass *analyzerPass, ft *ast.FuncType, body *ast.BlockStmt) {
	if ft.Params == nil {
		return
	}
	paramIndex := 0
	for _, field := range ft.Params.List {
		isCtx := isContextType(pass, field.Type)
		names := field.Names
		if len(names) == 0 {
			names = []*ast.Ident{nil} // unnamed parameter still occupies a position
		}
		for _, name := range names {
			if isCtx {
				if paramIndex != 0 {
					pass.reportf(field.Pos(), "context.Context must be the first parameter")
				}
				if name != nil && name.Name != "_" && body != nil && !identUsed(pass, body, name) {
					pass.reportf(field.Pos(), "context parameter %s is never forwarded; cancellation stops here", name.Name)
				}
				if body != nil {
					checkCtxRecreated(pass, body)
				}
			}
			paramIndex++
		}
	}
}

// identUsed reports whether the object defined by def is referenced
// anywhere in body.
func identUsed(pass *analyzerPass, body *ast.BlockStmt, def *ast.Ident) bool {
	obj := pass.info.Defs[def]
	used := false
	ast.Inspect(body, func(n ast.Node) bool {
		if used {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj != nil {
			if pass.info.Uses[id] == obj {
				used = true
			}
		} else if id.Name == def.Name {
			used = true // no type info: match by name
		}
		return true
	})
	return used
}

// checkCtxRecreated flags context.Background()/context.TODO() inside a
// function that already has a context parameter: the caller's deadline
// and cancellation are silently dropped.
func checkCtxRecreated(pass *analyzerPass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested function has its own parameters
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkg, fn := packageFunc(pass, sel); pkg == "context" && (fn == "Background" || fn == "TODO") {
				pass.reportf(call.Pos(), "context.%s() inside a function that already receives a ctx; forward the caller's context", fn)
			}
		}
		return true
	})
}

// checkCtxStore flags assignments that store a context into a struct
// field (x.f = ctx), the dynamic form of the stored-context mistake.
func checkCtxStore(pass *analyzerPass, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break
		}
		if _, ok := lhs.(*ast.SelectorExpr); !ok {
			continue
		}
		if t := pass.typeOf(as.Rhs[i]); t != nil && t.String() == "context.Context" {
			pass.reportf(as.Pos(), "context.Context assigned to a struct field; contexts are call-scoped, pass them as parameters")
		}
	}
}

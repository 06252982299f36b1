package analysis

import (
	"go/ast"
	"go/types"
)

// timerLeak guards the stack's timer loops — the scrub scheduler, the
// group-commit linger, the compaction nudge, the crawl dispatcher all
// run timers inside long-lived loops, where a leaked timer per
// iteration becomes a steady allocation drip the GC cannot reclaim
// until each timer fires.
//
// Three rules, checked per function (closures are scanned as part of
// their enclosing declaration):
//
//   - time.After inside any loop is a finding: every iteration parks a
//     new runtime timer until it fires; a reused time.NewTimer with
//     Stop is the loop-safe form.
//   - time.Tick is always a finding: the ticker it allocates can never
//     be stopped.
//   - a time.NewTimer/time.NewTicker result must be Stop-ed somewhere
//     in the same function (a deferred Stop counts, as does a Stop in a
//     deferred closure). Results that are returned, stored in a
//     struct, or passed on are ownership transfers and are skipped —
//     the receiver is responsible.
var timerLeak = &Analyzer{
	Name: "timerleak",
	Doc:  "no time.After in loops, no time.Tick, every NewTimer/NewTicker paired with Stop",
	run:  runTimerLeak,
}

func runTimerLeak(pass *analyzerPass) {
	for _, f := range pass.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkTimers(pass, fn.Body)
		}
	}
}

func checkTimers(pass *analyzerPass, body *ast.BlockStmt) {
	// One pass over the function collects every loop's lexical range,
	// the variables timer constructors are assigned to, the
	// constructor calls that escape (returned / stored / passed on),
	// and every `<x>.Stop()` receiver spelling.
	type loopRange struct{ lo, hi ast.Node }
	var loops []loopRange
	assigned := make(map[*ast.CallExpr]string)
	escaped := make(map[*ast.CallExpr]bool)
	stops := make(map[string]bool)

	markEscapes := func(exprs []ast.Expr) {
		for _, e := range exprs {
			if call, ok := ast.Unparen(e).(*ast.CallExpr); ok {
				if name := timeFunc(pass, call); name == "NewTimer" || name == "NewTicker" {
					escaped[call] = true
				}
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, loopRange{x, x})
		case *ast.RangeStmt:
			loops = append(loops, loopRange{x, x})
		case *ast.AssignStmt:
			if len(x.Lhs) == len(x.Rhs) {
				for i, rhs := range x.Rhs {
					call, ok := ast.Unparen(rhs).(*ast.CallExpr)
					if !ok {
						continue
					}
					if name := timeFunc(pass, call); name != "NewTimer" && name != "NewTicker" {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						assigned[call] = id.Name
					} else {
						// Stored into a struct field, map or slice slot:
						// its lifecycle extends beyond this function.
						escaped[call] = true
					}
				}
			}
		case *ast.ReturnStmt:
			markEscapes(x.Results)
		case *ast.CallExpr:
			if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Stop" && len(x.Args) == 0 {
				stops[types.ExprString(sel.X)] = true
			}
			// A constructor handed directly to another call transfers
			// ownership (e.g. wrapping helpers).
			markEscapes(x.Args)
		}
		return true
	})

	inLoop := func(n ast.Node) bool {
		for _, l := range loops {
			if n.Pos() > l.lo.Pos() && n.End() <= l.hi.End() {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch timeFunc(pass, call) {
		case "After":
			if inLoop(call) {
				pass.reportf(call.Pos(), "time.After in a loop parks a new timer every iteration until it fires; reuse a time.NewTimer with Stop")
			}
		case "Tick":
			pass.reportf(call.Pos(), "time.Tick's ticker can never be stopped; use time.NewTicker with defer Stop")
		case "NewTimer", "NewTicker":
			if escaped[call] {
				return true
			}
			name, ok := assigned[call]
			if !ok {
				pass.reportf(call.Pos(), "timer is never bound to a variable, so it can never be stopped")
				return true
			}
			if !stops[name] {
				pass.reportf(call.Pos(), "%s is never stopped in this function: add defer %s.Stop() (or an explicit Stop on every path)", name, name)
			}
		}
		return true
	})
}

// timeFunc names the package-time function a call invokes ("After",
// "Tick", "NewTimer", "NewTicker"), or "" for anything else — in
// particular "" for the time.Time.After *method*, whose package is
// also "time": the selector base must be the time package name itself.
// Without type information it falls back to the `time.` spelling.
func timeFunc(pass *analyzerPass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "After", "Tick", "NewTimer", "NewTicker":
	default:
		return ""
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if obj := pass.info.Uses[id]; obj != nil {
		if pn, ok := obj.(*types.PkgName); ok && pn.Imported().Path() == "time" {
			return sel.Sel.Name
		}
		return ""
	}
	if id.Name == "time" {
		return sel.Sel.Name
	}
	return ""
}

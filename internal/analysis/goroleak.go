package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// goroLeak enforces the daemon's goroutine lifecycle invariant: every
// goroutine the stack spawns — group-commit writers, sync/compaction/
// scrub loops, crawl workers — must provably terminate,
// or the daemon accumulates runners that outlive their owner and hold
// segments, documents, and sockets forever.
//
// For each `go` statement the analyzer resolves the spawned body: a
// function literal directly, or — interprocedurally, through the
// module-wide declaration index — a function or method declared in any
// analyzed package (`go s.committer(sh)`, `go s.scrubLoop(ctx)`).
// An unresolvable callee (function value, callee outside the analyzed
// set) is skipped: nothing is provable about it.
//
// A resolved body passes when every unbounded loop (`for` with no
// condition) has a provable exit:
//
//   - the loop never exits at all — no return, no break — is always a
//     finding: the goroutine runs forever by construction;
//   - a loop that exits only on internal conditions is accepted when
//     the goroutine visibly hands its lifetime to an owner — it calls
//     sync.WaitGroup.Done, defers close of a done channel, or the loop
//     itself receives from a channel (a ctx.Done()/shutdown-channel
//     select, a `v, ok := <-ch` close test, a `range ch` drain);
//   - bodies with only bounded loops (a condition, a non-channel
//     range) terminate when their work does and pass as-is.
//
// Deliberate fire-and-forget goroutines carry an
// //xyvet:allow goroleak directive with the reason.
var goroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "every spawned goroutine provably exits: shutdown receive, WaitGroup.Done/close handoff, or bounded body",
	run:  runGoroLeak,
}

func runGoroLeak(pass *analyzerPass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			body := spawnedBody(pass, g.Call)
			if body == nil {
				return true
			}
			checkGoroutine(pass, g, body)
			return true
		})
	}
}

// spawnedBody resolves the block a go statement will run.
func spawnedBody(pass *analyzerPass, call *ast.CallExpr) *ast.BlockStmt {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	if fd := pass.calleeDecl(call); fd != nil {
		return fd.Body
	}
	return nil
}

func checkGoroutine(pass *analyzerPass, g *ast.GoStmt, body *ast.BlockStmt) {
	handoff := hasLifetimeHandoff(pass, body)
	for _, loop := range unboundedLoops(body) {
		scan := scanLoop(pass, loop)
		line := pass.fset.Position(loop.Pos()).Line
		switch {
		case !scan.exits:
			pass.reportf(g.Pos(), "goroutine never terminates: the for loop at line %d has no return or break", line)
		case !scan.recv && !handoff:
			pass.reportf(g.Pos(), "goroutine has no provable exit path: the loop at line %d never receives from a shutdown channel or context, and the goroutine neither calls a WaitGroup.Done nor defers close of a done channel", line)
		}
	}
}

// hasLifetimeHandoff reports whether the body visibly hands its
// lifetime to an owner: a sync.WaitGroup.Done call (an owner Waits) or
// a deferred close of a channel (an owner receives the close).
func hasLifetimeHandoff(pass *analyzerPass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch s := n.(type) {
		case *ast.GoStmt:
			return false // a nested goroutine's evidence is its own
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && isWaitGroupDone(pass, call) {
				found = true
			}
		case *ast.DeferStmt:
			if isWaitGroupDone(pass, s.Call) || isClose(s.Call) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isWaitGroupDone matches wg.Done() on a sync.WaitGroup (by type when
// the checker resolved it, by the conventional receiver name when it
// did not).
func isWaitGroupDone(pass *analyzerPass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Done" || len(call.Args) != 0 {
		return false
	}
	t := pass.typeOf(sel.X)
	if t == nil {
		name := strings.ToLower(types.ExprString(sel.X))
		return strings.Contains(name, "wg") || strings.Contains(name, "waitgroup")
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

func isClose(call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "close" && len(call.Args) == 1
}

// unboundedLoops collects the `for`-with-no-condition loops of a body,
// at any statement depth, excluding nested function literals (their
// loops belong to whoever calls them) and nested go statements.
func unboundedLoops(body *ast.BlockStmt) []*ast.ForStmt {
	var loops []*ast.ForStmt
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ForStmt:
			if s.Cond == nil {
				loops = append(loops, s)
			}
		}
		return true
	})
	return loops
}

// loopScan is what one unbounded loop's body reveals about its exits.
type loopScan struct {
	// exits: a return, or a break that leaves this loop, is reachable
	// inside it.
	exits bool
	// recv: the loop receives from a channel (select case, plain
	// receive, or range over a channel) — the shutdown-signal shape.
	recv bool
}

func scanLoop(pass *analyzerPass, loop *ast.ForStmt) loopScan {
	var s loopScan
	scanLoopBody(pass, loop.Body, 0, &s)
	return s
}

// scanLoopBody walks one loop body. breakDepth counts the for/range/
// switch/select statements between the current node and the loop being
// scanned, so a plain `break` is only credited when it actually leaves
// the scanned loop. Labeled breaks are credited unconditionally: the
// conservative reading (an exit exists) avoids resolving label
// targets.
func scanLoopBody(pass *analyzerPass, n ast.Node, breakDepth int, s *loopScan) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.ReturnStmt:
			s.exits = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK && (x.Label != nil || breakDepth == 0) {
				s.exits = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				s.recv = true
			}
		case *ast.RangeStmt:
			// Ranging over a channel is a receive (the loop ends when the
			// channel closes); over anything else it is bounded. Either
			// way the nested body has its own break scope.
			if isChanExpr(pass, x.X) {
				s.recv = true
			}
			scanLoopBody(pass, x.Body, breakDepth+1, s)
			return false
		case *ast.ForStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			for _, sub := range childBodies(node) {
				scanLoopBody(pass, sub, breakDepth+1, s)
			}
			return false
		}
		return true
	})
}

// isChanExpr reports whether e has a channel type. Without type
// information it answers false — the loop then needs other exit
// evidence, which is the conservative direction.
func isChanExpr(pass *analyzerPass, e ast.Expr) bool {
	t := pass.typeOf(e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// childBodies returns the nested statement bodies of a compound
// statement, so the walker can descend with an adjusted break depth.
func childBodies(n ast.Node) []ast.Node {
	var out []ast.Node
	switch x := n.(type) {
	case *ast.ForStmt:
		if x.Init != nil {
			out = append(out, x.Init)
		}
		out = append(out, x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			out = append(out, x.Init)
		}
		out = append(out, x.Body)
	case *ast.TypeSwitchStmt:
		out = append(out, x.Body)
	case *ast.SelectStmt:
		out = append(out, x.Body)
	}
	return out
}

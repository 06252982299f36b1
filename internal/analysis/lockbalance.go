package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockBalance enforces the store's lock discipline: every Lock/RLock of
// a sync.Mutex / sync.RWMutex must be released in the same function —
// either by an immediate `defer mu.Unlock()` or by an explicit unlock
// on every return path — and the same mutex must not be locked twice on
// one path (the self-deadlock a double-lock of a per-document history
// lock would cause under load).
//
// The check is a conservative per-statement-list flow analysis: it
// follows straight-line order, descends into branches with a copy of
// the lock state, and reports a return (or function end) reached while
// a lock is provably still held with no protecting defer. Functions
// that intentionally hand a locked structure to their caller (the
// store's reading() helper) carry an //xyvet:allow lockbalance
// directive with the reason.
var lockBalance = &Analyzer{
	Name: "lockbalance",
	Doc:  "Lock/RLock paired with defer Unlock or an unlock on every return path; no double-lock",
	run:  runLockBalance,
}

// lockState tracks one mutex inside one function walk.
type lockState struct {
	reader    bool // held via RLock
	protected bool // a defer will release it
}

type lockKind uint8

const (
	opLock lockKind = iota
	opRLock
	opUnlock
	opRUnlock
)

func runLockBalance(pass *analyzerPass) {
	for _, f := range pass.files {
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				w := &lockWalker{pass: pass}
				w.walk(body.List, map[string]*lockState{}, true)
			}
			return true // keep descending: nested FuncLits get their own walk
		})
	}
}

type lockWalker struct {
	pass *analyzerPass
}

// walk scans one statement list. held is mutated in place for
// straight-line effects; branches get copies (a branch may not run, so
// its effects cannot be assumed afterwards). top marks the outermost
// list of a function, where falling off the end is an implicit return.
func (w *lockWalker) walk(stmts []ast.Stmt, held map[string]*lockState, top bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, kind, ok := w.mutexOp(s.X); ok {
				w.apply(s.Pos(), key, kind, held)
			}
		case *ast.DeferStmt:
			if key, kind, ok := w.mutexOpCall(s.Call); ok && (kind == opUnlock || kind == opRUnlock) {
				if st := held[key]; st != nil {
					st.protected = true
				}
			}
		case *ast.ReturnStmt:
			w.checkLeaks(s.Pos(), held, "return")
		case *ast.IfStmt:
			w.walkNested(s.Init, held)
			w.walk(s.Body.List, copyLocks(held), false)
			if s.Else != nil {
				switch e := s.Else.(type) {
				case *ast.BlockStmt:
					w.walk(e.List, copyLocks(held), false)
				case *ast.IfStmt:
					w.walk([]ast.Stmt{e}, copyLocks(held), false)
				}
			}
		case *ast.ForStmt:
			w.walkNested(s.Init, held)
			w.walk(s.Body.List, copyLocks(held), false)
		case *ast.RangeStmt:
			w.walk(s.Body.List, copyLocks(held), false)
		case *ast.SwitchStmt:
			w.walkNested(s.Init, held)
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, copyLocks(held), false)
				}
			}
		case *ast.TypeSwitchStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					w.walk(cc.Body, copyLocks(held), false)
				}
			}
		case *ast.SelectStmt:
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					w.walk(cc.Body, copyLocks(held), false)
				}
			}
		case *ast.BlockStmt:
			w.walk(s.List, held, false) // bare block: same scope, effects persist
		case *ast.LabeledStmt:
			w.walk([]ast.Stmt{s.Stmt}, held, top)
		}
	}
	if top && len(stmts) > 0 {
		// Falling off the end is an implicit return — but when the list
		// already ends in an explicit return, that return was checked.
		if _, isReturn := stmts[len(stmts)-1].(*ast.ReturnStmt); !isReturn {
			w.checkLeaks(stmts[len(stmts)-1].End(), held, "function end")
		}
	}
}

// walkNested runs a single optional statement (if/for/switch init).
func (w *lockWalker) walkNested(s ast.Stmt, held map[string]*lockState) {
	if s != nil {
		w.walk([]ast.Stmt{s}, held, false)
	}
}

// apply mutates the lock state for one mutex operation and reports
// double-locks.
func (w *lockWalker) apply(pos token.Pos, key string, kind lockKind, held map[string]*lockState) {
	switch kind {
	case opLock, opRLock:
		if st := held[key]; st != nil {
			how := "Lock"
			if st.reader {
				how = "RLock"
			}
			w.pass.reportf(pos, "%s locked again while already held via %s (self-deadlock on a sync.Mutex, writer starvation on a sync.RWMutex)", key, how)
		}
		held[key] = &lockState{reader: kind == opRLock}
	case opUnlock, opRUnlock:
		if st := held[key]; st != nil {
			if st.reader != (kind == opRUnlock) {
				want, got := "Unlock", "RUnlock"
				if st.reader {
					want, got = got, want
				}
				w.pass.reportf(pos, "%s released with %s but was acquired for %s", key, got, want)
			}
			delete(held, key)
		}
		// Unlock without a visible Lock (releasing a lock a callee
		// acquired) is deliberately not reported: the acquiring
		// function is where the handoff is reviewed.
	}
}

// checkLeaks reports every mutex still held with no protecting defer.
func (w *lockWalker) checkLeaks(pos token.Pos, held map[string]*lockState, where string) {
	for key, st := range held {
		if st.protected {
			continue
		}
		verb := "Unlock"
		if st.reader {
			verb = "RUnlock"
		}
		w.pass.reportf(pos, "%s at %s still held: no defer %s.%s and no unlock on this path (lock handoffs need %s lockbalance)",
			key, where, key, verb, directivePrefix)
	}
}

// mutexOp matches an expression statement that is a mutex method call.
func (w *lockWalker) mutexOp(e ast.Expr) (key string, kind lockKind, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", 0, false
	}
	return w.mutexOpCall(call)
}

func (w *lockWalker) mutexOpCall(call *ast.CallExpr) (key string, kind lockKind, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 0 {
		return "", 0, false
	}
	switch sel.Sel.Name {
	case "Lock":
		kind = opLock
	case "RLock":
		kind = opRLock
	case "Unlock":
		kind = opUnlock
	case "RUnlock":
		kind = opRUnlock
	default:
		return "", 0, false
	}
	if !w.isMutex(sel.X) {
		return "", 0, false
	}
	return types.ExprString(sel.X), kind, true
}

// isMutex reports whether e has a sync mutex type (sync.Mutex,
// sync.RWMutex, sync.Locker, possibly behind a pointer). Without type
// information it falls back to a naming heuristic so the analyzer still
// works on packages with type errors.
func (w *lockWalker) isMutex(e ast.Expr) bool {
	t := w.pass.typeOf(e)
	if t == nil {
		name := types.ExprString(e)
		if i := strings.LastIndexByte(name, '.'); i >= 0 {
			name = name[i+1:]
		}
		lower := strings.ToLower(name)
		return lower == "mu" || strings.HasSuffix(lower, "mu") || strings.Contains(lower, "mutex") || strings.Contains(lower, "lock")
	}
	if p, isPtr := t.Underlying().(*types.Pointer); isPtr {
		t = p.Elem()
	}
	switch tt := t.(type) {
	case *types.Named:
		obj := tt.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync" {
			return obj.Name() == "Mutex" || obj.Name() == "RWMutex" || obj.Name() == "Locker"
		}
	}
	return false
}

func copyLocks(held map[string]*lockState) map[string]*lockState {
	out := make(map[string]*lockState, len(held))
	for k, v := range held {
		cp := *v
		out[k] = &cp
	}
	return out
}

package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// poolBalance guards the diff core's scratch reuse (internal/diff's
// tree/matcher pools, internal/lcs's Fenwick scratch): a sync.Pool only
// pays off if every Get is matched by a Put on every path, and a value
// must never be touched after it went back — the next Get may already
// be mutating it on another goroutine, which is a data race no test
// reliably catches.
//
// The analysis is interprocedural within a package. First it
// classifies helper functions:
//
//   - a *source* returns a pooled value to its caller (`newTree`,
//     `newMatcher` — directly or through other sources);
//   - a *sink* returns its parameter or receiver to a pool
//     (`(*tree).release`, `(*matcher).release`).
//
// Then, in every function, a value acquired from a pool or a source
// must be either returned (the function becomes a source itself),
// released via `defer` (panic-safe), or released on the spot — in
// which case any later return between acquire and release, and any use
// of the value after the release, is a finding.
var poolBalance = &Analyzer{
	Name: "poolbalance",
	Doc:  "sync.Pool.Get paired with Put on every path (defer for panic safety); no use after Put",
	run:  runPoolBalance,
}

func runPoolBalance(pass *analyzerPass) {
	pb := &poolChecker{
		pass:    pass,
		sources: make(map[types.Object]bool),
		sinks:   make(map[types.Object]bool),
	}
	pb.classify()
	for _, f := range pass.files {
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				pb.checkFunc(fn)
			}
		}
	}
}

type poolChecker struct {
	pass    *analyzerPass
	sources map[types.Object]bool // returns a pooled value
	sinks   map[types.Object]bool // Puts a param/receiver back
}

// isPoolExpr reports whether e is a sync.Pool (or *sync.Pool) value.
func (pb *poolChecker) isPoolExpr(e ast.Expr) bool {
	t := pb.pass.typeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool"
}

// poolCall matches `<pool>.Get()` / `<pool>.Put(x)` calls.
func (pb *poolChecker) poolCall(call *ast.CallExpr) (method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	switch sel.Sel.Name {
	case "Get":
		if len(call.Args) != 0 {
			return "", false
		}
	case "Put":
		if len(call.Args) != 1 {
			return "", false
		}
	default:
		return "", false
	}
	if !pb.isPoolExpr(sel.X) {
		return "", false
	}
	return sel.Sel.Name, true
}

// acquireExpr reports whether e yields a pooled value: a direct Get
// (possibly behind a type assertion) or a call of a known source.
func (pb *poolChecker) acquireExpr(e ast.Expr) bool {
	e = ast.Unparen(e)
	if ta, ok := e.(*ast.TypeAssertExpr); ok {
		e = ast.Unparen(ta.X)
	}
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if m, ok := pb.poolCall(call); ok && m == "Get" {
		return true
	}
	return pb.sinksOrSources(call, pb.sources)
}

// sinksOrSources reports whether the call's callee object is in set.
func (pb *poolChecker) sinksOrSources(call *ast.CallExpr, set map[types.Object]bool) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return false
	}
	obj := pb.pass.info.Uses[id]
	if obj == nil {
		return false
	}
	return set[obj]
}

// classify finds the package's sources and sinks, iterating sources to
// a fixpoint so wrappers of wrappers (a helper returning newTree's
// result) are recognized.
func (pb *poolChecker) classify() {
	// Sinks need one pass: a Put whose argument resolves to a parameter
	// or the receiver.
	for _, f := range pb.pass.files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			owned := pb.paramObjects(fn)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if m, ok := pb.poolCall(call); ok && m == "Put" {
					if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
						if obj := pb.pass.info.Uses[id]; obj != nil && owned[obj] {
							if fnObj := pb.pass.info.Defs[fn.Name]; fnObj != nil {
								pb.sinks[fnObj] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	// Sources to a fixpoint.
	for changed := true; changed; {
		changed = false
		for _, f := range pb.pass.files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				fnObj := pb.pass.info.Defs[fn.Name]
				if fnObj == nil || pb.sources[fnObj] {
					continue
				}
				if pb.returnsPooled(fn) {
					pb.sources[fnObj] = true
					changed = true
				}
			}
		}
	}
}

// paramObjects collects the objects of fn's parameters and receiver.
func (pb *poolChecker) paramObjects(fn *ast.FuncDecl) map[types.Object]bool {
	owned := make(map[types.Object]bool)
	addFields := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := pb.pass.info.Defs[name]; obj != nil {
					owned[obj] = true
				}
			}
		}
	}
	addFields(fn.Recv)
	if fn.Type != nil {
		addFields(fn.Type.Params)
	}
	return owned
}

// returnsPooled reports whether fn returns a pooled value on some
// path: a return of an acquire expression, or of a variable bound to
// one.
func (pb *poolChecker) returnsPooled(fn *ast.FuncDecl) bool {
	acquired := make(map[types.Object]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !pb.acquireExpr(rhs) {
				continue
			}
			if id, ok := assign.Lhs[i].(*ast.Ident); ok {
				if obj := pb.lhsObject(id); obj != nil {
					acquired[obj] = true
				}
			}
		}
		return true
	})
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if pb.acquireExpr(res) {
				found = true
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok {
				if obj := pb.pass.info.Uses[id]; obj != nil && acquired[obj] {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// lhsObject resolves the object an assignment left-hand ident binds
// (Defs for :=, Uses for =).
func (pb *poolChecker) lhsObject(id *ast.Ident) types.Object {
	if obj := pb.pass.info.Defs[id]; obj != nil {
		return obj
	}
	return pb.pass.info.Uses[id]
}

// acquire is one tracked pooled value inside a function.
type acquire struct {
	obj types.Object
	pos token.Pos
}

// checkFunc enforces the pairing discipline inside one declaration.
func (pb *poolChecker) checkFunc(fn *ast.FuncDecl) {
	fnObj := pb.pass.info.Defs[fn.Name]
	if fnObj != nil && (pb.sources[fnObj] || pb.sinks[fnObj]) {
		// Sources hand the value to their caller, sinks receive it to
		// release: the pairing obligation lives at their call sites.
		return
	}
	var acquires []acquire
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != len(assign.Rhs) {
			return true
		}
		for i, rhs := range assign.Rhs {
			if !pb.acquireExpr(rhs) {
				continue
			}
			id, ok := assign.Lhs[i].(*ast.Ident)
			if !ok {
				continue // acquire into non-local storage: not trackable
			}
			if obj := pb.lhsObject(id); obj != nil {
				acquires = append(acquires, acquire{obj: obj, pos: id.Pos()})
			}
		}
		return true
	})
	for _, acq := range acquires {
		pb.checkAcquire(fn, acq)
	}
}

// releaseOf reports whether the statement's call releases obj: a
// direct `<pool>.Put(obj)`, a sink call with obj as argument, or a
// sink method call on obj.
func (pb *poolChecker) releaseOf(call *ast.CallExpr, obj types.Object) bool {
	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && pb.pass.info.Uses[id] == obj
	}
	if m, ok := pb.poolCall(call); ok && m == "Put" {
		return usesObj(call.Args[0])
	}
	if pb.sinksOrSources(call, pb.sinks) {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && usesObj(sel.X) {
			return true
		}
		for _, arg := range call.Args {
			if usesObj(arg) {
				return true
			}
		}
	}
	return false
}

func (pb *poolChecker) checkAcquire(fn *ast.FuncDecl, acq acquire) {
	var (
		deferredRelease bool
		releases        []*ast.CallExpr // non-deferred releases, in source order
		returned        bool
	)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			if pb.releaseOf(x.Call, acq.obj) {
				deferredRelease = true
			}
			// A deferred closure releasing the value also counts.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				ast.Inspect(lit.Body, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && pb.releaseOf(call, acq.obj) {
						deferredRelease = true
					}
					return true
				})
			}
			return false
		case *ast.CallExpr:
			if pb.releaseOf(x, acq.obj) && x.Pos() > acq.pos {
				releases = append(releases, x)
			}
		case *ast.ReturnStmt:
			for _, res := range x.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok && pb.pass.info.Uses[id] == acq.obj {
					returned = true
				}
			}
		}
		return true
	})
	if deferredRelease || returned {
		return
	}
	if len(releases) == 0 {
		pb.pass.reportf(acq.pos, "%s is drawn from a pool but never returned to it: add a defer-ed Put/release (or return it to transfer ownership)", acq.obj.Name())
		return
	}
	// Released inline: every return between the acquire and the
	// release leaks the value on that path, and any use after the
	// release races the next Get. The release calls' own mentions of
	// the value are not uses.
	releasePos := releases[0].Pos()
	inRelease := func(pos token.Pos) bool {
		for _, r := range releases {
			if pos >= r.Pos() && pos < r.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.ReturnStmt:
			if x.Pos() > acq.pos && x.End() <= releasePos {
				pb.pass.reportf(x.Pos(), "return between %s's pool Get and its Put leaks the value on this path; release it before returning or use defer", acq.obj.Name())
			}
		case *ast.Ident:
			if x.Pos() > releasePos && !inRelease(x.Pos()) && pb.pass.info.Uses[x] == acq.obj {
				pb.pass.reportf(x.Pos(), "%s is used after it was returned to its pool: the next Get may already own it (data race)", acq.obj.Name())
			}
		}
		return true
	})
}

package analysis

import (
	"go/ast"
	"go/token"
)

// segOrder encodes the sharded engine's durable-write ordering
// (internal/vstore): within any function of a package named "vstore"
// or "faultfs" (whose WriteAtomic writes the engine's files),
//
//  1. the group-committed segment append (appendDurable) must happen
//     before the in-memory commit — assignments to a document state's
//     base/versions/deltas fields and the observer callback — so a
//     version is never acknowledged or observable before its record is
//     in the shard's segment journal;
//  2. the per-document snapshots (snapshotDoc) must be written before
//     the segments they cover are retired (retireSegments), so a crash
//     between the two still finds every version in either a snapshot
//     or a segment;
//  3. in temp-file-plus-rename writers (functions using CreateTemp),
//     the fsync (Sync) must happen before the Rename that publishes
//     the file.
//
// Together the three rules are the write → fsync → rename → retire
// discipline; the check compares source order within one function —
// exactly what a refactor of PutDetailed or compactShard could silently
// reorder.
var segOrder = &Analyzer{
	Name: "segorder",
	Doc:  "vstore and faultfs ordering: segment append before commit, snapshot before segment retire, fsync before rename",
	run:  runSegOrder,
}

func runSegOrder(pass *analyzerPass) {
	for _, f := range pass.files {
		if !segOrderPackages[f.Name.Name] {
			return
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkSegOrder(pass, fn)
		}
	}
}

// segOrderPackages names the packages segOrder checks.
var segOrderPackages = map[string]bool{"vstore": true, "faultfs": true}

// segSites records source positions of the calls and commit writes a
// function performs, in document order.
type segSites struct {
	appends    []token.Pos // appendDurable(...)
	commits    []token.Pos // x.base = / x.versions = / x.deltas = / x.versions++ / s.obs(...)
	snapshots  []token.Pos // snapshotDoc(...)
	retires    []token.Pos // retireSegments(...)
	syncs      []token.Pos // x.Sync()
	renames    []token.Pos // x.Rename(...)
	hasTmpFile bool        // x.CreateTemp(...) seen
}

func checkSegOrder(pass *analyzerPass, fn *ast.FuncDecl) {
	var sites segSites
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.CallExpr:
			switch calleeName(node) {
			case "appendDurable":
				sites.appends = append(sites.appends, node.Pos())
			case "snapshotDoc":
				sites.snapshots = append(sites.snapshots, node.Pos())
			case "retireSegments":
				sites.retires = append(sites.retires, node.Pos())
			case "Sync":
				sites.syncs = append(sites.syncs, node.Pos())
			case "Rename":
				sites.renames = append(sites.renames, node.Pos())
			case "CreateTemp":
				sites.hasTmpFile = true
			case "obs":
				sites.commits = append(sites.commits, node.Pos())
			}
		case *ast.AssignStmt:
			for _, lhs := range node.Lhs {
				if isDocStateField(lhs) {
					sites.commits = append(sites.commits, node.Pos())
				}
			}
		case *ast.IncDecStmt:
			if isDocStateField(node.X) {
				sites.commits = append(sites.commits, node.Pos())
			}
		}
		return true
	})

	reportBefore := func(later []token.Pos, earlier []token.Pos, what string) {
		if len(later) == 0 || len(earlier) == 0 {
			return
		}
		first := earlier[0]
		for _, p := range earlier[1:] {
			if p < first {
				first = p
			}
		}
		for _, p := range later {
			if p < first {
				pass.reportf(p, "%s (segment-log ordering, see internal/vstore/segment.go)", what)
			}
		}
	}
	reportBefore(sites.commits, sites.appends,
		"in-memory commit before the segment append: a crash would acknowledge a version no segment saw")
	reportBefore(sites.retires, sites.snapshots,
		"segments retired before the covering snapshots are written: a crash here loses versions")
	if sites.hasTmpFile {
		reportBefore(sites.renames, sites.syncs,
			"rename publishes the file before Sync flushes it: a crash can leave the published path with lost content")
	}
}

// calleeName extracts the bare called-function name: f(...) -> "f",
// x.f(...) -> "f".
func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// isDocStateField matches selector targets of the in-memory commit:
// <expr>.base, <expr>.versions and <expr>.deltas (the docState fields
// a Put publishes).
func isDocStateField(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "base", "versions", "deltas":
		return true
	}
	return false
}

package analysis

import (
	"strconv"
	"strings"
)

// depBound enforces the architecture boundaries as import rules rather
// than convention. The payoff for the diff core is portability: a core
// that never imports os, syscall, or net is trivially wasm-clean and
// embeddable — diffing happens on io.Reader/io.Writer and in-memory
// DOMs, and anything that touches the filesystem lives in a shell
// package (internal/dom/domio, the commands). The core also reads XML
// one way only, through internal/dom's tokenizer: encoding/xml is
// denied to it, so a second reader cannot come back by import (test
// files are not loaded, which is where the old one lives on as the
// tokenizer's oracle). The storage and command
// rules keep the dependency graph acyclic in the direction the design
// intends: storage must not reach up into the server, and commands
// must not reach sideways into each other.
//
// Scope paths match exactly (internal/dom matches internal/dom, not
// internal/dom/domio — the shell package under a core package is the
// sanctioned place for its I/O). Deny patterns match by path segment
// prefix ("os" matches os and os/exec but not osquery) and "cmd/*"
// matches every command package.
var depBound = &Analyzer{
	Name: "depbound",
	Doc:  "architecture boundaries: diff core imports no os/syscall/net and no encoding/xml, storage no server, commands not each other",
	run:  runDepBound,
}

// boundaryRule is one layer's import restriction. Scope and Deny paths
// are module-relative ("internal/dom") or absolute ("os"); "cmd/*"
// means every package directly under cmd.
type boundaryRule struct {
	layer  string
	scope  []string
	deny   []string
	reason string
}

// boundaryRules is the architecture of record. cmd/xyvet prints it and
// the README documents it; changing a boundary means changing this
// table in a reviewed commit, not quietly adding an import.
var boundaryRules = []boundaryRule{
	{
		layer: "diff core",
		scope: []string{
			"internal/dom", "internal/diff", "internal/delta",
			"internal/dtd", "internal/lcs", "internal/xid",
			"internal/textdiff", "internal/xpathlite", "internal/sftm",
			"internal/optdelta",
		},
		deny:   []string{"os", "syscall", "net", "encoding/xml"},
		reason: "the core diffs io.Reader/io.Writer and in-memory DOMs; keeping it free of platform I/O makes it wasm-clean and embeddable, and internal/dom's tokenizer is its one XML reader (encoding/xml is that tokenizer's oracle, in tests only)",
	},
	{
		layer: "storage",
		scope: []string{
			"internal/vstore", "internal/faultfs", "internal/store",
		},
		deny:   []string{"internal/server"},
		reason: "the server drives storage, never the reverse; an upward import would make shutdown ordering and error ownership circular",
	},
	{
		layer:  "commands",
		scope:  []string{"cmd/*"},
		deny:   []string{"cmd/*"},
		reason: "commands are leaves; shared behavior belongs in internal packages, not in one command importing another",
	},
}

func runDepBound(pass *analyzerPass) {
	rel := relPath(pass.mod, pass.path)
	if rel == "" {
		return
	}
	for i := range boundaryRules {
		rule := &boundaryRules[i]
		if !inScope(rule.scope, rel) {
			continue
		}
		checkImports(pass, rule, rel)
	}
}

// relPath strips the module prefix from an import path; packages
// outside the module (or an unknown module) are out of every scope.
func relPath(mod, path string) string {
	if mod == "" {
		return ""
	}
	if path == mod {
		return "."
	}
	if rest, ok := strings.CutPrefix(path, mod+"/"); ok {
		return rest
	}
	return ""
}

// inScope reports whether rel matches one of the rule's scope paths:
// exact match, or direct child for a trailing /*.
func inScope(scope []string, rel string) bool {
	for _, s := range scope {
		if pat, ok := strings.CutSuffix(s, "/*"); ok {
			if rest, ok := strings.CutPrefix(rel, pat+"/"); ok && !strings.Contains(rest, "/") {
				return true
			}
			continue
		}
		if rel == s {
			return true
		}
	}
	return false
}

// denies matches an imported path against a deny pattern. Module-
// relative patterns (containing "internal/" or "cmd/") compare against
// the import's module-relative form; bare patterns like "os" or "net"
// compare against the absolute path by segment prefix.
func denies(pattern, mod, imported string) bool {
	target := imported
	if strings.HasPrefix(pattern, "internal/") || strings.HasPrefix(pattern, "cmd/") {
		target = relPath(mod, imported)
		if target == "" {
			return false
		}
	}
	if pat, ok := strings.CutSuffix(pattern, "/*"); ok {
		rest, ok := strings.CutPrefix(target, pat+"/")
		return ok && !strings.Contains(rest, "/")
	}
	return target == pattern || strings.HasPrefix(target, pattern+"/")
}

func checkImports(pass *analyzerPass, rule *boundaryRule, rel string) {
	for _, f := range pass.files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			// A command may import itself-shaped paths only when the
			// deny pattern would match its own package (cmd/* in scope
			// and deny): importing yourself is impossible in Go, so no
			// special case is needed — but a subpackage of the same
			// command is fine.
			if samePkgTree(rule, pass.mod, rel, path) {
				continue
			}
			for _, pattern := range rule.deny {
				if denies(pattern, pass.mod, path) {
					pass.reportf(imp.Pos(), "%s package %s must not import %s: %s", rule.layer, rel, path, rule.reason)
					break
				}
			}
		}
	}
}

// samePkgTree exempts imports inside one command's own subtree when
// both scope and deny are the cmd/* wildcard (cmd/xydiffd importing
// cmd/xydiffd/internal/ui would otherwise trip the sideways rule).
func samePkgTree(rule *boundaryRule, mod, rel, imported string) bool {
	impRel := relPath(mod, imported)
	if impRel == "" {
		return false
	}
	return strings.HasPrefix(impRel+"/", rel+"/") || strings.HasPrefix(rel+"/", impRel+"/")
}

// Command xyvet runs xydiff's domain-specific static-analysis suite
// (internal/analysis) over the module: the repo-specific invariants —
// no panics escaping library code, balanced lock and pool usage,
// context propagation, wrapped errors, durable-write ordering,
// goroutine and timer lifecycles, the architecture boundaries
// (the diff core never imports os/syscall/net or encoding/xml, storage
// never imports the server, commands never import each other),
// testonly (no library function that only tests reach) and
// localexport (no exported name that no other package uses) —
// checked mechanically instead of by review. Packages are analyzed in parallel on up to
// GOMAXPROCS goroutines; output order is deterministic regardless.
//
// Usage:
//
//	xyvet [-json] [-list] [packages]
//
// Package patterns are module-relative ("./...", "./internal/store").
// With no pattern, ./... is checked. testonly and localexport need
// every caller loaded, so they report only when the patterns cover the
// whole module.
//
// Exit status:
//
//	0  no findings
//	1  at least one diagnostic was reported
//	2  the code could not be loaded (parse or type errors, bad usage)
//
// With -json the output is a single object: "findings" holds the
// diagnostics (file, line, column, analyzer, message), "counts" the
// per-analyzer finding totals (only analyzers that fired appear).
//
// A finding is suppressed by a comment on the flagged line or the line
// above it:
//
//	//xyvet:allow <analyzer>[,<analyzer>] -- reason
//
// Suppressions are audited in turn: a directive that no longer
// suppresses anything, or that names an unknown analyzer, is itself a
// staleallow finding.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"xydiff/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// report is the -json envelope.
type report struct {
	Findings []analysis.Diagnostic `json:"findings"`
	Counts   map[string]int        `json:"counts"`
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("xyvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings and per-analyzer counts as JSON")
	list := fs.Bool("list", false, "list the analyzers and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: xyvet [-json] [-list] [packages]\n\n")
		fmt.Fprintf(stderr, "Checks xydiff's domain invariants. Patterns are module-relative (default ./...).\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "xyvet:", err)
		return 2
	}
	loader, err := analysis.LoaderForDir(wd)
	if err != nil {
		fmt.Fprintln(stderr, "xyvet:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "xyvet:", err)
		return 2
	}
	loadErrors := 0
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "xyvet: %s: %v\n", pkg.Path, terr)
			loadErrors++
		}
	}
	diags := analysis.Run(pkgs, analyzers)
	if *jsonOut {
		rep := report{Findings: diags, Counts: make(map[string]int)}
		if rep.Findings == nil {
			rep.Findings = []analysis.Diagnostic{}
		}
		for _, d := range diags {
			rep.Counts[d.Analyzer]++
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "xyvet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	switch {
	case loadErrors > 0:
		return 2
	case len(diags) > 0:
		return 1
	}
	return 0
}

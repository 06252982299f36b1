package analysis

import (
	"fmt"
	"sort"
)

// staleAllow keeps the suppression surface honest: an //xyvet:allow
// directive that suppresses no finding is dead weight — usually the
// code it excused was refactored away, and the directive now hides
// nothing except the reader's confidence that every remaining allow is
// a reviewed exception. The check also catches directives naming
// analyzers that do not exist (a typo in the name silently disables
// the suppression, which then reads as reviewed but is not).
//
// The detection lives in Run rather than in a per-package pass of its
// own: only after every other analyzer has reported can a directive be
// known unused. A directive is only called stale when every analyzer
// it names actually ran (and, for "all", when the whole suite ran), so
// partial runs — a single analyzer over one package in a fixture test —
// never produce false staleness.
var staleAllow = &Analyzer{
	Name: "staleallow",
	Doc:  "//xyvet:allow directives must suppress at least one finding and name real analyzers",
	// Run is nil: the check is a post-pass over the directive table,
	// driven by Run itself after the other analyzers reported.
	run: nil,
}

// staleFindings reports the package's unused and mistyped directives.
// running is the name set of the analyzers of this Run; directives
// whose analyzers did not all run are skipped, not reported.
func staleFindings(allowed directives, running map[string]bool) []Diagnostic {
	known := make(map[string]bool)
	for _, a := range All() {
		known[a.Name] = true
	}
	ds := make([]*directive, 0, len(allowed))
	for _, d := range allowed {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].pos, ds[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	var diags []Diagnostic
	emit := func(d *directive, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: staleAllow.Name,
			Position: d.pos,
			Message:  fmt.Sprintf(format, args...),
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Column:   d.pos.Column,
		})
	}
	for _, d := range ds {
		names := sortedNames(d.names)
		covered := true
		mistyped := false
		for _, name := range names {
			switch {
			case name == "all":
				for k := range known {
					if !running[k] {
						covered = false
					}
				}
			case !known[name]:
				emit(d, "unknown analyzer %q in %s directive (known: %s)", name, directivePrefix, joinNames(known))
				mistyped = true
			case !running[name]:
				covered = false
			}
		}
		if d.used || !covered || mistyped {
			continue
		}
		emit(d, "stale suppression: %s %s no longer suppresses any finding — delete the directive", directivePrefix, joinList(names))
	}
	return diags
}

func sortedNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func joinNames(set map[string]bool) string { return joinList(sortedNames(set)) }

func joinList(names []string) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += ","
		}
		s += n
	}
	return s
}

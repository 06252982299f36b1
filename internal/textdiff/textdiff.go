// Package textdiff is a line-based difference tool equivalent to the
// classic Unix diff: a Myers O(ND) comparison over lines with ed-style
// output ("3,5c3,4" hunks). The paper's Figure 6 compares the size of
// XML deltas against the size of Unix diff output on the same document
// pair; this package makes that experiment hermetic.
package textdiff

import (
	"fmt"
	"strings"

	"xydiff/internal/lcs"
)

// lines splits s into lines, stripping a sole trailing newline the way
// diff(1) treats text files.
func lines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// hunk is one contiguous block of changes.
type hunk struct {
	// ALo/aHi and BLo/BHi are 0-based half-open line ranges in the old
	// and new texts. An empty A range is an append, an empty B range a
	// deletion, otherwise a change.
	aLo, aHi int
	bLo, bHi int
}

// hunks groups a Myers edit script over lines into contiguous hunks.
func hunks(a, b []string) []hunk {
	edits := lcs.Myers(a, b)
	var hunks []hunk
	var cur *hunk
	ai, bi := 0, 0
	flush := func() {
		if cur != nil {
			hunks = append(hunks, *cur)
			cur = nil
		}
	}
	for _, e := range edits {
		switch e.Kind {
		case lcs.Keep:
			flush()
			ai++
			bi++
		case lcs.Delete:
			if cur == nil {
				cur = &hunk{aLo: ai, aHi: ai, bLo: bi, bHi: bi}
			}
			ai++
			cur.aHi = ai
		case lcs.Insert:
			if cur == nil {
				cur = &hunk{aLo: ai, aHi: ai, bLo: bi, bHi: bi}
			}
			bi++
			cur.bHi = bi
		}
	}
	flush()
	return hunks
}

// diff returns the classic ed-style diff(1) output transforming a into
// b, with "<" lines from a and ">" lines from b. An empty string means
// the inputs are line-identical.
func diff(a, b string) string {
	la, lb := lines(a), lines(b)
	hunks := hunks(la, lb)
	if len(hunks) == 0 {
		return ""
	}
	var out strings.Builder
	for _, h := range hunks {
		switch {
		case h.aLo == h.aHi: // append
			fmt.Fprintf(&out, "%da%s\n", h.aLo, rangeStr(h.bLo, h.bHi))
		case h.bLo == h.bHi: // delete
			fmt.Fprintf(&out, "%sd%d\n", rangeStr(h.aLo, h.aHi), h.bLo)
		default: // change
			fmt.Fprintf(&out, "%sc%s\n", rangeStr(h.aLo, h.aHi), rangeStr(h.bLo, h.bHi))
		}
		for i := h.aLo; i < h.aHi; i++ {
			out.WriteString("< ")
			out.WriteString(la[i])
			out.WriteByte('\n')
		}
		if h.aLo != h.aHi && h.bLo != h.bHi {
			out.WriteString("---\n")
		}
		for i := h.bLo; i < h.bHi; i++ {
			out.WriteString("> ")
			out.WriteString(lb[i])
			out.WriteByte('\n')
		}
	}
	return out.String()
}

// rangeStr renders a 0-based half-open range in diff(1)'s 1-based
// inclusive notation: [2,5) -> "3,5"; [2,3) -> "3".
func rangeStr(lo, hi int) string {
	if hi-lo <= 1 {
		return fmt.Sprintf("%d", lo+1)
	}
	return fmt.Sprintf("%d,%d", lo+1, hi)
}

// Size returns len(Diff(a, b)): the byte size of the Unix diff output,
// the denominator of the paper's Figure 6 ratio.
func Size(a, b string) int {
	return len(diff(a, b))
}

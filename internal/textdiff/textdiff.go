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

// Lines splits s into lines, stripping a sole trailing newline the way
// diff(1) treats text files.
func Lines(s string) []string {
	if s == "" {
		return nil
	}
	s = strings.TrimSuffix(s, "\n")
	return strings.Split(s, "\n")
}

// Hunk is one contiguous block of changes.
type Hunk struct {
	// ALo/AHi and BLo/BHi are 0-based half-open line ranges in the old
	// and new texts. An empty A range is an append, an empty B range a
	// deletion, otherwise a change.
	ALo, AHi int
	BLo, BHi int
}

// Hunks groups a Myers edit script over lines into contiguous hunks.
func Hunks(a, b []string) []Hunk {
	edits := lcs.Myers(a, b)
	var hunks []Hunk
	var cur *Hunk
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
				cur = &Hunk{ALo: ai, AHi: ai, BLo: bi, BHi: bi}
			}
			ai++
			cur.AHi = ai
		case lcs.Insert:
			if cur == nil {
				cur = &Hunk{ALo: ai, AHi: ai, BLo: bi, BHi: bi}
			}
			bi++
			cur.BHi = bi
		}
	}
	flush()
	return hunks
}

// Diff returns the classic ed-style diff(1) output transforming a into
// b, with "<" lines from a and ">" lines from b. An empty string means
// the inputs are line-identical.
func Diff(a, b string) string {
	la, lb := Lines(a), Lines(b)
	hunks := Hunks(la, lb)
	if len(hunks) == 0 {
		return ""
	}
	var out strings.Builder
	for _, h := range hunks {
		switch {
		case h.ALo == h.AHi: // append
			fmt.Fprintf(&out, "%da%s\n", h.ALo, rangeStr(h.BLo, h.BHi))
		case h.BLo == h.BHi: // delete
			fmt.Fprintf(&out, "%sd%d\n", rangeStr(h.ALo, h.AHi), h.BLo)
		default: // change
			fmt.Fprintf(&out, "%sc%s\n", rangeStr(h.ALo, h.AHi), rangeStr(h.BLo, h.BHi))
		}
		for i := h.ALo; i < h.AHi; i++ {
			out.WriteString("< ")
			out.WriteString(la[i])
			out.WriteByte('\n')
		}
		if h.ALo != h.AHi && h.BLo != h.BHi {
			out.WriteString("---\n")
		}
		for i := h.BLo; i < h.BHi; i++ {
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
	return len(Diff(a, b))
}

package textdiff

import (
	"math/rand"
	"strings"
	"testing"
)

func TestDiffIdentical(t *testing.T) {
	s := "a\nb\nc\n"
	if got := diff(s, s); got != "" {
		t.Errorf("diff of identical = %q", got)
	}
}

func TestDiffKnownShapes(t *testing.T) {
	cases := []struct {
		name, a, b string
		wantCmd    string
	}{
		{"change one line", "a\nb\nc\n", "a\nX\nc\n", "2c2"},
		{"delete one line", "a\nb\nc\n", "a\nc\n", "2d1"},
		{"append one line", "a\nc\n", "a\nb\nc\n", "1a2"},
		{"change range", "a\nb\nc\nd\n", "a\nX\nY\nd\n", "2,3c2,3"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := diff(c.a, c.b)
			if !strings.HasPrefix(got, c.wantCmd+"\n") {
				t.Errorf("Diff output starts %q, want command %q\nfull:\n%s",
					strings.SplitN(got, "\n", 2)[0], c.wantCmd, got)
			}
		})
	}
}

func TestDiffMarkers(t *testing.T) {
	got := diff("a\nold\nb\n", "a\nnew\nb\n")
	want := "2c2\n< old\n---\n> new\n"
	if got != want {
		t.Errorf("Diff = %q, want %q", got, want)
	}
}

// patch applies a hunk list to the old lines and returns the new lines,
// so a test can show the hunks are information-preserving in the same
// sense as diff | patch.
func patch(a []string, hunks []hunk, b []string) []string {
	var out []string
	ai := 0
	for _, h := range hunks {
		out = append(out, a[ai:h.aLo]...)
		out = append(out, b[h.bLo:h.bHi]...)
		ai = h.aHi
	}
	out = append(out, a[ai:]...)
	return out
}

func TestHunksPatchRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	words := []string{"alpha", "beta", "gamma", "delta", "eps"}
	randLines := func(n int) []string {
		out := make([]string, rng.Intn(n))
		for i := range out {
			out[i] = words[rng.Intn(len(words))]
		}
		return out
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randLines(25), randLines(25)
		got := patch(a, hunks(a, b), b)
		if strings.Join(got, "\n") != strings.Join(b, "\n") {
			t.Fatalf("patch(a, hunks) != b\na=%v\nb=%v\ngot=%v", a, b, got)
		}
	}
}

func TestLines(t *testing.T) {
	if got := lines(""); got != nil {
		t.Errorf("Lines(\"\") = %v", got)
	}
	if got := lines("a\nb\n"); len(got) != 2 {
		t.Errorf("Lines trailing newline = %v", got)
	}
	if got := lines("a\nb"); len(got) != 2 {
		t.Errorf("Lines no trailing newline = %v", got)
	}
	// A single long line (the paper notes XML documents may contain
	// very long lines, hurting line diffs).
	if got := lines("one single very long line"); len(got) != 1 {
		t.Errorf("single line = %v", got)
	}
}

func TestSizeWorstCase(t *testing.T) {
	// Completely different single-line documents: diff must carry both
	// sides, so its size exceeds both inputs (the paper's "worst case
	// size for the Unix Diff output is twice the size of the document").
	a := "<doc>" + strings.Repeat("x", 500) + "</doc>"
	b := "<doc>" + strings.Repeat("y", 500) + "</doc>"
	if got := Size(a, b); got < len(a)+len(b) {
		t.Errorf("worst-case size %d, want >= %d", got, len(a)+len(b))
	}
}

func TestRangeStr(t *testing.T) {
	if got := rangeStr(2, 3); got != "3" {
		t.Errorf("rangeStr(2,3) = %q", got)
	}
	if got := rangeStr(2, 5); got != "3,5" {
		t.Errorf("rangeStr(2,5) = %q", got)
	}
}

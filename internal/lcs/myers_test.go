package lcs

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// applyEdits reconstructs b from a and an edit script.
func applyEdits(a, b []string, edits []Edit) []string {
	var out []string
	for _, e := range edits {
		switch e.Kind {
		case Keep:
			out = append(out, a[e.aIdx])
		case Insert:
			out = append(out, b[e.bIdx])
		case Delete:
			// skip a[e.AIdx]
		}
	}
	return out
}

func editCost(edits []Edit) int {
	d := 0
	for _, e := range edits {
		if e.Kind != Keep {
			d++
		}
	}
	return d
}

func lines(s string) []string {
	if s == "" {
		return nil
	}
	return strings.Split(s, "")
}

func TestMyersKnownCases(t *testing.T) {
	cases := []struct {
		a, b string
		d    int
	}{
		{"", "", 0},
		{"abc", "abc", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"abcabba", "cbabac", 5}, // Myers' paper example, D=5
		{"a", "b", 2},
	}
	for _, c := range cases {
		edits := Myers(lines(c.a), lines(c.b))
		if got := editCost(edits); got != c.d {
			t.Errorf("Myers(%q,%q) cost %d, want %d", c.a, c.b, got, c.d)
		}
		got := strings.Join(applyEdits(lines(c.a), lines(c.b), edits), "")
		if got != c.b {
			t.Errorf("Myers(%q,%q) reconstructs %q", c.a, c.b, got)
		}
	}
}

func TestMyersReconstructionQuick(t *testing.T) {
	f := func(a, b string) bool {
		if len(a) > 30 {
			a = a[:30]
		}
		if len(b) > 30 {
			b = b[:30]
		}
		la, lb := lines(a), lines(b)
		edits := Myers(la, lb)
		return strings.Join(applyEdits(la, lb, edits), "") == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMyersMinimalAgainstLCS(t *testing.T) {
	// Minimal edit distance = len(a)+len(b)-2*LCS.
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		a := randString(rng, 12, "ab")
		b := randString(rng, 12, "ab")
		edits := Myers(lines(a), lines(b))
		want := len(a) + len(b) - 2*len(lcsStrings(a, b))
		if got := editCost(edits); got != want {
			t.Fatalf("Myers(%q,%q) cost %d, want %d", a, b, got, want)
		}
	}
}

func TestMyersEditIndicesMonotone(t *testing.T) {
	edits := Myers(lines("abcabba"), lines("cbabac"))
	ai, bi := 0, 0
	for _, e := range edits {
		switch e.Kind {
		case Keep:
			if e.aIdx != ai || e.bIdx != bi {
				t.Fatalf("keep at a=%d b=%d, cursor a=%d b=%d", e.aIdx, e.bIdx, ai, bi)
			}
			ai++
			bi++
		case Delete:
			if e.aIdx != ai {
				t.Fatalf("delete at a=%d, cursor %d", e.aIdx, ai)
			}
			ai++
		case Insert:
			if e.bIdx != bi {
				t.Fatalf("insert at b=%d, cursor %d", e.bIdx, bi)
			}
			bi++
		}
	}
}

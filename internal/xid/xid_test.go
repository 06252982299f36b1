package xid

import (
	"fmt"
	"testing"
	"testing/quick"

	"xydiff/internal/dom"
)

func doc(t *testing.T, s string) *dom.Node {
	t.Helper()
	d, err := dom.ParseString(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestAssignPostorder(t *testing.T) {
	d := doc(t, `<a><b><c/></b><d/></a>`)
	alloc := Assign(d)
	// Post-order: c=1 b=2 d=3 a=4 document=5.
	want := map[string]int64{"c": 1, "b": 2, "d": 3, "a": 4}
	dom.WalkPre(d, func(n *dom.Node) bool {
		if n.Type == dom.Element {
			if n.XID != want[n.Name] {
				t.Errorf("%s XID = %d, want %d", n.Name, n.XID, want[n.Name])
			}
		}
		return true
	})
	if d.XID != 5 {
		t.Errorf("document XID = %d, want 5", d.XID)
	}
	if alloc.Peek() != 6 {
		t.Errorf("allocator next = %d, want 6", alloc.Peek())
	}
}

func TestAllocator(t *testing.T) {
	a := NewAllocator(10)
	if a.Next() != 10 || a.Next() != 11 {
		t.Error("allocator not monotone from start")
	}
	if NewAllocator(-3).Next() != 1 {
		t.Error("allocator should clamp to 1")
	}
}

func TestOfContiguous(t *testing.T) {
	d := doc(t, `<a><b><c/></b><d/></a>`)
	Assign(d)
	m := Of(d.Root())
	if got := m.String(); got != "(1-4)" {
		t.Errorf("map = %s, want (1-4)", got)
	}
	if m.Root() != 4 {
		t.Errorf("Root = %d, want 4", m.Root())
	}
	if m.Len() != 4 {
		t.Errorf("Len = %d, want 4", m.Len())
	}
}

func TestMapFragmented(t *testing.T) {
	var m Map
	for _, x := range []int64{3, 4, 5, 9, 12, 13} {
		m.add(x)
	}
	if got := m.String(); got != "(3-5;9;12-13)" {
		t.Errorf("map = %s", got)
	}
	if m.Root() != 13 {
		t.Errorf("Root = %d", m.Root())
	}
	if got := fmt.Sprint(m.XIDs()); got != "[3 4 5 9 12 13]" {
		t.Errorf("XIDs = %s", got)
	}
}

func TestParseMapRoundTrip(t *testing.T) {
	for _, s := range []string{"()", "(1)", "(1-4)", "(3-5;9;12-13)", "(7;9)"} {
		m, err := ParseMap(s)
		if err != nil {
			t.Fatalf("ParseMap(%q): %v", s, err)
		}
		if got := m.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestParseMapNormalizesAdjacent(t *testing.T) {
	m, err := ParseMap("(1-2;3;4-6)")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.String(); got != "(1-6)" {
		t.Errorf("normalized = %s, want (1-6)", got)
	}
}

func TestParseMapErrors(t *testing.T) {
	for _, bad := range []string{"", "1-4", "(1-", "(x)", "(4-1)", "(1;;2)"} {
		if _, err := ParseMap(bad); err == nil {
			t.Errorf("ParseMap(%q) succeeded", bad)
		}
	}
}

func TestApplyTo(t *testing.T) {
	d := doc(t, `<a><b><c/></b><d/></a>`)
	m, _ := ParseMap("(10;20;30;40)")
	if err := m.ApplyTo(d.Root()); err != nil {
		t.Fatal(err)
	}
	got := map[string]int64{}
	dom.WalkPre(d.Root(), func(n *dom.Node) bool {
		got[n.Name] = n.XID
		return true
	})
	// Post-order c,b,d,a -> 10,20,30,40.
	if got["c"] != 10 || got["b"] != 20 || got["d"] != 30 || got["a"] != 40 {
		t.Errorf("ApplyTo distribution wrong: %v", got)
	}
	short, _ := ParseMap("(1-2)")
	if err := short.ApplyTo(d.Root()); err == nil {
		t.Error("ApplyTo with short map should error")
	}
	long, _ := ParseMap("(1-9)")
	if err := long.ApplyTo(d.Root()); err == nil {
		t.Error("ApplyTo with long map should error")
	}
}

func TestMapAppendPropertyQuick(t *testing.T) {
	// Appending any ascending sequence must round-trip through the
	// string form and preserve membership exactly.
	f := func(deltas []uint8) bool {
		var m Map
		var xs []int64
		cur := int64(0)
		for _, d := range deltas {
			cur += int64(d%7) + 1
			xs = append(xs, cur)
			m.add(cur)
		}
		parsed, err := ParseMap(m.String())
		if err != nil {
			return false
		}
		got := parsed.XIDs()
		if len(got) != len(xs) {
			return false
		}
		for i := range xs {
			if got[i] != xs[i] {
				return false
			}
		}
		return parsed.Len() == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

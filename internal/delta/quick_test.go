package delta

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"xydiff/internal/dom"
)

// RandomOps generates structurally valid (though not necessarily
// applicable) deltas for serialization properties.
type RandomOps struct {
	D *Delta
}

// Generate implements quick.Generator.
func (RandomOps) Generate(r *rand.Rand, size int) reflect.Value {
	if size > 20 {
		size = 20
	}
	d := &Delta{}
	n := r.Intn(size + 1)
	for i := 0; i < n; i++ {
		x := int64(r.Intn(500) + 1)
		switch r.Intn(7) {
		case 0:
			sub := dom.NewElement("e")
			if r.Intn(2) == 0 {
				// Empty text nodes cannot survive serialization; the
				// real tree model never contains them.
				w := randWord(r)
				if w == "" {
					w = "t"
				}
				sub.Append(dom.NewText(w))
			}
			dom.WalkPost(sub, func(node *dom.Node) bool {
				node.XID = x
				x++
				return true
			})
			d.Ops = append(d.Ops, Op{Kind: KindInsert, XID: sub.XID, Parent: int64(r.Intn(100) + 1), Pos: int32(r.Intn(5)), Subtree: sub})
		case 1:
			sub := dom.NewElement("gone")
			sub.XID = x
			d.Ops = append(d.Ops, Op{Kind: KindDelete, XID: x, Parent: int64(r.Intn(100) + 1), Pos: int32(r.Intn(5)), Subtree: sub})
		case 2:
			d.Ops = append(d.Ops, Op{Kind: KindUpdate, XID: x, Old: randWord(r), New: randWord(r)})
		case 3:
			d.Ops = append(d.Ops, Op{Kind: KindMove, XID: x, Parent: int64(r.Intn(100) + 1), Pos: int32(r.Intn(5)), ToParent: int64(r.Intn(100) + 1), ToPos: int32(r.Intn(5))})
		case 4:
			d.Ops = append(d.Ops, Op{Kind: KindInsertAttr, XID: x, Name: randName(r), New: randWord(r)})
		case 5:
			d.Ops = append(d.Ops, Op{Kind: KindDeleteAttr, XID: x, Name: randName(r), Old: randWord(r)})
		default:
			d.Ops = append(d.Ops, Op{Kind: KindUpdateAttr, XID: x, Name: randName(r), Old: randWord(r), New: randWord(r)})
		}
	}
	d.NextXID = int64(r.Intn(1000) + 600)
	return reflect.ValueOf(RandomOps{D: d.Normalize()})
}

func randName(r *rand.Rand) string {
	names := []string{"k", "key", "data-x", "ns:attr"}
	return names[r.Intn(len(names))]
}

func randWord(r *rand.Rand) string {
	words := []string{"alpha", "beta", "", "x y", "<odd&>", "café"}
	return words[r.Intn(len(words))]
}

func TestQuickInvertIsInvolution(t *testing.T) {
	f := func(ro RandomOps) bool {
		a, err1 := ro.D.MarshalText()
		once, err := ro.D.Invert()
		if err != nil {
			return false
		}
		twice, err := once.Invert()
		if err != nil {
			return false
		}
		b, err2 := twice.MarshalText()
		return err1 == nil && err2 == nil && string(a) == string(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickXMLRoundTrip(t *testing.T) {
	f := func(ro RandomOps) bool {
		text, err := ro.D.MarshalText()
		if err != nil {
			return false
		}
		parsed, err := ParseString(string(text))
		if err != nil {
			return false
		}
		text2, err := parsed.MarshalText()
		return err == nil && string(text) == string(text2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNormalizeIdempotent(t *testing.T) {
	f := func(ro RandomOps) bool {
		a, _ := ro.D.Normalize().MarshalText()
		b, _ := ro.D.Normalize().Normalize().MarshalText()
		return string(a) == string(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCountsMatchOps(t *testing.T) {
	f := func(ro RandomOps) bool {
		return ro.D.Count().Total() == len(ro.D.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestXMLRoundTripGenerated(t *testing.T) {
	r := rand.New(rand.NewSource(0))
	for trial := 0; trial < 2000; trial++ {
		ro := RandomOps{}.Generate(r, 20).Interface().(RandomOps)
		text, err := ro.D.MarshalText()
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		parsed, err := ParseString(string(text))
		if err != nil {
			t.Fatalf("trial %d parse: %v\n%s", trial, err, text)
		}
		text2, _ := parsed.MarshalText()
		if string(text) != string(text2) {
			t.Fatalf("trial %d unstable:\nA: %s\nB: %s", trial, text, text2)
		}
	}
}

// TestQuickInvertInPlace: Invert turns the delta it is given into its
// inverse, op for op in the order the copying Invert it replaced gave
// (the inverses of the inserts, then of the deletes, then of the rest,
// sorted), from canonical order and from shuffled order. A canonical
// delta inverts with nothing allocated, and one with an op of an
// unknown kind is refused and left as it was.
func TestQuickInvertInPlace(t *testing.T) {
	f := func(ro RandomOps, shuffle bool, seed int64) bool {
		d := ro.D
		if shuffle {
			rand.New(rand.NewSource(seed)).Shuffle(len(d.Ops), func(i, j int) { d.Ops[i], d.Ops[j] = d.Ops[j], d.Ops[i] })
		}
		want := invertCopy(d)
		got, err := d.Invert()
		return err == nil && got == d && reflect.DeepEqual(got.Ops, want.Ops) && got.NextXID == want.NextXID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}

	d := RandomOps{}.Generate(rand.New(rand.NewSource(1)), 20).Interface().(RandomOps).D
	if allocs := testing.AllocsPerRun(10, func() { mustInvert(t, d) }); allocs != 0 {
		t.Errorf("inverting a canonical delta of %d ops allocates %.0f times, want none", len(d.Ops), allocs)
	}

	bad := &Delta{Ops: []Op{{Kind: KindDelete, XID: 1, Parent: 2, Subtree: dom.NewElement("a")}, {Kind: KindUpdateAttr + 1, XID: 3}}}
	before := slices.Clone(bad.Ops)
	if _, err := bad.Invert(); err == nil || !reflect.DeepEqual(bad.Ops, before) {
		t.Errorf("Invert of an unknown kind: %v, ops %v, want an error and %v", err, bad.Ops, before)
	}
}

// invertCopy is Invert before it worked in place: a new delta of the
// inverses, those of the inserts first, then of the deletes, then of
// the rest, sorted.
func invertCopy(d *Delta) *Delta {
	inv := &Delta{NextXID: d.NextXID}
	for _, pass := range []func(Kind) bool{
		func(k Kind) bool { return k == KindInsert },
		func(k Kind) bool { return k == KindDelete },
		func(k Kind) bool { return k != KindInsert && k != KindDelete },
	} {
		for _, op := range d.Ops {
			if pass(op.Kind) {
				op.invert()
				inv.Ops = append(inv.Ops, op)
			}
		}
	}
	sortReference(inv)
	return inv
}

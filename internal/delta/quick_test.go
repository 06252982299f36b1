package delta

import (
	"math/rand"
	"reflect"
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
		once, err := ro.D.Invert()
		if err != nil {
			return false
		}
		twice, err := once.Invert()
		if err != nil {
			return false
		}
		a, err1 := ro.D.MarshalText()
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

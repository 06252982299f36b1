package diff

import (
	"math/rand"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

func diffStep(t *testing.T, oldDoc *dom.Node, newXML string) (*dom.Node, *delta.Delta) {
	t.Helper()
	newDoc := parse(t, newXML)
	d, err := Diff(oldDoc, newDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return newDoc, d
}

func TestComposeTwoDeltas(t *testing.T) {
	v1 := parse(t, `<r><a>1</a><b>2</b></r>`)
	v2, d12 := diffStep(t, v1, `<r><a>1</a><b>3</b><c>new</c></r>`)
	_, d23 := diffStep(t, v2, `<r><b>4</b><c>new</c></r>`)

	composed, err := Compose(v1, d12, d23)
	if err != nil {
		t.Fatal(err)
	}
	got, err := delta.ApplyClone(v1, composed)
	if err != nil {
		t.Fatalf("apply composed: %v\n%s", err, composed)
	}
	v3 := parse(t, `<r><b>4</b><c>new</c></r>`)
	if !dom.Equal(got, v3) {
		t.Fatalf("composed result differs: %s", dom.Diagnose(got, v3))
	}
	// Intermediate churn collapses: <b> was updated twice -> one
	// update op with the original old value and the final new value.
	c := composed.Count()
	if c.Updates != 1 {
		t.Errorf("composed updates = %d, want 1:\n%s", c.Updates, composed)
	}
}

func TestComposeCancelsInsertThenDelete(t *testing.T) {
	v1 := parse(t, `<r><keep/></r>`)
	v2, d12 := diffStep(t, v1, `<r><keep/><temp>scratch</temp></r>`)
	_, d23 := diffStep(t, v2, `<r><keep/></r>`)
	composed, err := Compose(v1, d12, d23)
	if err != nil {
		t.Fatal(err)
	}
	if !composed.Empty() {
		t.Fatalf("insert-then-delete should compose to the empty delta:\n%s", composed)
	}
}

func TestComposeCollapsesMoveChains(t *testing.T) {
	v1 := parse(t, `<r><a><x>heavy payload</x></a><b/><c/></r>`)
	v2, d12 := diffStep(t, v1, `<r><a/><b><x>heavy payload</x></b><c/></r>`)
	_, d23 := diffStep(t, v2, `<r><a/><b/><c><x>heavy payload</x></c></r>`)
	composed, err := Compose(v1, d12, d23)
	if err != nil {
		t.Fatal(err)
	}
	cnt := composed.Count()
	if cnt.Moves != 1 || cnt.Total() != 1 {
		t.Fatalf("two moves should compose to one, got %v:\n%s", cnt, composed)
	}
}

func TestComposePreservesXIDAssignment(t *testing.T) {
	// Applying the composed delta must leave the document with the
	// exact same XIDs as applying the chain, so a store can substitute
	// one for the other.
	v1 := parse(t, `<r><a>1</a></r>`)
	v2, d12 := diffStep(t, v1, `<r><a>1</a><ins>fresh</ins></r>`)
	_, d23 := diffStep(t, v2, `<r><a>2</a><ins>fresh</ins><more/></r>`)

	viaChain := v1.Clone()
	if err := delta.Apply(viaChain, d12); err != nil {
		t.Fatal(err)
	}
	if err := delta.Apply(viaChain, d23); err != nil {
		t.Fatal(err)
	}
	composed, err := Compose(v1, d12, d23)
	if err != nil {
		t.Fatal(err)
	}
	viaComposed, err := delta.ApplyClone(v1, composed)
	if err != nil {
		t.Fatal(err)
	}
	chainNodes := dom.Preorder(viaChain)
	composedNodes := dom.Preorder(viaComposed)
	if len(chainNodes) != len(composedNodes) {
		t.Fatal("node counts differ")
	}
	for i := range chainNodes {
		if chainNodes[i].XID != composedNodes[i].XID {
			t.Fatalf("XID divergence at %s: chain %d vs composed %d",
				chainNodes[i].Path(), chainNodes[i].XID, composedNodes[i].XID)
		}
	}
	if composed.NextXID < d23.NextXID {
		t.Errorf("composed NextXID %d < chain NextXID %d", composed.NextXID, d23.NextXID)
	}
}

func TestComposeInvertible(t *testing.T) {
	v1 := parse(t, `<r><a>1</a><b>2</b><c>3</c></r>`)
	v2, d12 := diffStep(t, v1, `<r><b>2</b><a>1</a></r>`)
	_, d23 := diffStep(t, v2, `<r><b>9</b><a>1</a><d/></r>`)
	composed, err := Compose(v1, d12, d23)
	if err != nil {
		t.Fatal(err)
	}
	v3, err := delta.ApplyClone(v1, composed)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := composed.Invert()
	if err != nil {
		t.Fatal(err)
	}
	back, err := delta.ApplyClone(v3, inv)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(back, v1) {
		t.Fatalf("inverted composition differs: %s", dom.Diagnose(back, v1))
	}
}

func TestComposeEmptyChainAndErrors(t *testing.T) {
	v1 := parse(t, `<r/>`)
	d, err := Compose(v1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() {
		t.Error("empty chain should compose to empty delta")
	}
	if _, err := Compose(nil); err == nil {
		t.Error("nil base accepted")
	}
	if _, err := Compose(v1.Root()); err == nil {
		t.Error("element base accepted")
	}
	bogus := &delta.Delta{Ops: []delta.Op{{Kind: delta.KindUpdate, XID: 999, Old: "x", New: "y"}}}
	if _, err := Compose(v1, bogus); err == nil {
		t.Error("inapplicable delta accepted")
	}
}

func TestComposeRandomChains(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 30; trial++ {
		base := randomDoc(rng, 40)
		// Build a chain of 3 diffs over random mutations.
		cur := base
		var chain []*delta.Delta
		for step := 0; step < 3; step++ {
			next := cur.Clone()
			mutate(rng, next, 1+rng.Intn(5))
			d, err := Diff(cur, next, Options{})
			if err != nil {
				t.Fatal(err)
			}
			chain = append(chain, d)
			cur = next
		}
		composed, err := Compose(base, chain...)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, err := delta.ApplyClone(base, composed)
		if err != nil {
			t.Fatalf("trial %d apply: %v", trial, err)
		}
		if !dom.Equal(got, cur) {
			t.Fatalf("trial %d: composed != chained: %s", trial, dom.Diagnose(got, cur))
		}
	}
}

// TestComposeVersionsTakesItsContent: ComposeVersions records each
// insert's and delete's content as the unmatched subtree of its
// documents itself, and records what composing with copies records,
// byte for byte. Each taken subtree is detached from its document (no
// Parent at the root), holds no node the other version keeps, shares no
// node with another op's, and every children slice in it has exact
// capacity.
func TestComposeVersionsTakesItsContent(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	for trial := 0; trial < 30; trial++ {
		base := randomDoc(rng, 40)
		cur := base
		for step := 0; step < 3; step++ {
			next := cur.Clone()
			mutate(rng, next, 1+rng.Intn(5))
			if _, err := Diff(cur, next, Options{}); err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		copied, err := composeVersions(base.Clone(), cur.Clone(), Options{DisableIDAttributes: true, keepNewXIDs: true})
		if err != nil {
			t.Fatal(err)
		}
		taken, err := ComposeVersions(base.Clone(), cur.Clone())
		if err != nil {
			t.Fatal(err)
		}
		want, err := copied.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		got, err := taken.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("trial %d: taking content records\n%s\ncopying it records\n%s", trial, got, want)
		}
		kept := map[int64]bool{} // XIDs both versions hold
		inBase := map[int64]bool{}
		dom.WalkPre(base, func(n *dom.Node) bool { inBase[n.XID] = true; return true })
		dom.WalkPre(cur, func(n *dom.Node) bool { kept[n.XID] = inBase[n.XID]; return true })
		seen := map[*dom.Node]bool{}
		for i, op := range taken.Ops {
			if op.Subtree == nil {
				continue
			}
			if op.Subtree.Parent != nil {
				t.Fatalf("trial %d: op %d's content is still attached to its document", trial, i)
			}
			dom.WalkPre(op.Subtree, func(n *dom.Node) bool {
				if seen[n] {
					t.Fatalf("trial %d: a node is in the content of two ops", trial)
				}
				seen[n] = true
				if kept[n.XID] {
					t.Fatalf("trial %d: op %d's content holds node %d, which both versions keep", trial, i, n.XID)
				}
				if cap(n.Children) != len(n.Children) {
					t.Fatalf("trial %d: op %d: node %d has %d children in room for %d", trial, i, n.XID, len(n.Children), cap(n.Children))
				}
				for _, c := range n.Children {
					if c.Parent != n {
						t.Fatalf("trial %d: op %d: a child of node %d names another parent", trial, i, n.XID)
					}
				}
				return true
			})
		}
	}
}

package vstore

import (
	"slices"
	"strings"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// FuzzDetachedEqual: a read walk's step compares each subtree it
// detaches with the one its frame holds in place (thawer.equal), and
// that comparison is dom.Equal's verdict on the subtree thawed. On
// FuzzResidentDelta's deltas — the delta seed itself, and the one oldXML
// and newXML diff to — each subtree a step forward or backward would
// detach is compared, in the frame, with a copy of itself changed at
// one node (pick, how): a value changed or emptied, a name, a type, an
// attribute added, dropped, reordered, changed or repeated, a child
// dropped, added or swapped, an XID, or nothing. differs must agree as
// well.
func FuzzDetachedEqual(f *testing.F) {
	for i, s := range residentDeltaSeeds(f) {
		f.Add(s.delta, s.old, s.new, s.sftm, uint16(7*i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, deltaXML, oldXML, newXML string, sftm bool, pick uint16, how uint8) {
		var frames [][]byte
		if d, err := delta.ParseString(deltaXML); err == nil {
			if frame, ok := freezeDelta(d); ok {
				frames = append(frames, frame)
			}
		}
		old, errOld := dom.ParseBytes([]byte(oldXML), snapshotLoadOptions())
		nw, errNew := dom.ParseBytes([]byte(newXML), snapshotLoadOptions())
		if errOld == nil && errNew == nil {
			xid.Assign(old)
			m := diff.MatcherBULD
			if sftm {
				m = diff.MatcherSFTM
			}
			if d, err := diff.Diff(old, nw, diff.Options{Matcher: m}); err == nil {
				if frame, ok := freezeDelta(d); ok {
					frames = append(frames, frame)
				}
			}
		}
		for _, frame := range frames {
			whole, _, err := thawDelta(frame)
			if err != nil {
				t.Fatalf("a frozen delta does not thaw: %v", err)
			}
			for _, backward := range []bool{false, true} {
				var th thawer
				if _, err := th.thawStep(frame, backward); err != nil {
					t.Fatalf("a step (backward %v) does not thaw a frame the whole thaw takes: %v", backward, err)
				}
				for _, sp := range th.spans {
					sub := whole.Ops[sp.op].Subtree
					cand := sub.Clone()
					mutate(cand, int(pick)+int(sp.op), how)
					want := dom.Equal(cand, sub)
					if got := th.equal(sp, cand); got != want {
						t.Fatalf("op %d (backward %v), change %d: in place %v, dom.Equal %v\nrecorded %s\ncompared %s", sp.op, backward, how%14, got, want, sub, cand)
					}
					if diag := th.differs(int(sp.op), cand); (diag == "") != want {
						t.Fatalf("op %d (backward %v), change %d: differs says %q, dom.Equal %v", sp.op, backward, how%14, diag, want)
					}
				}
			}
		}
	})
}

// mutate changes the node of sub at pre-order position pick in the way
// how picks, in place: sub must be a tree of its own.
func mutate(sub *dom.Node, pick int, how uint8) {
	nodes := dom.Preorder(sub)
	n := nodes[pick%len(nodes)]
	switch how % 14 {
	case 1:
		n.Value += "x"
	case 2:
		n.Name += "x"
	case 3:
		n.Type = (n.Type + 1) % (dom.ProcInst + 1)
	case 4:
		n.Attrs = append(slices.Clone(n.Attrs), dom.Attr{Name: "x", Value: "1"})
	case 5:
		if len(n.Attrs) > 0 {
			n.Attrs = n.Attrs[1:]
		}
	case 6:
		n.Attrs = slices.Clone(n.Attrs)
		slices.Reverse(n.Attrs)
	case 7:
		if len(n.Attrs) > 0 {
			n.Attrs = slices.Clone(n.Attrs)
			n.Attrs[0].Value += "y"
		}
	case 8:
		if len(n.Attrs) > 0 {
			n.Attrs = append(slices.Clone(n.Attrs), dom.Attr{Name: n.Attrs[0].Name, Value: "dup"})
		}
	case 9:
		if k := len(n.Children); k > 0 {
			n.Children = n.Children[:k-1]
		}
	case 10:
		n.Append(dom.NewText("t"))
	case 11:
		if len(n.Children) > 1 {
			n.Children = slices.Clone(n.Children)
			n.Children[0], n.Children[1] = n.Children[1], n.Children[0]
		}
	case 12:
		n.XID++
	case 13:
		n.Value = ""
	}
}

// TestStepRefusesChangedDetachedContent changes one byte of a value in a
// subtree the frame of a stored delta records, a deleted one and then an
// inserted one: the read walk's step that detaches it — forward for the
// delete, backward for the insert — fails as Replay fails a detach whose
// content differs, though it compares the subtree in the frame rather
// than thawed.
func TestStepRefusesChangedDetachedContent(t *testing.T) {
	for _, c := range []struct {
		name        string
		target, fwd int
		backward    bool
	}{
		{"forward, a deleted subtree", 2, 1, false},
		{"backward, an inserted subtree", 1, 0, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := chainStore(t, Config{Shards: 1}, catalogChain(t, 7000, 2), "doc")
			defer s.Close()
			st := s.shardFor("doc").lookup("doc")
			st.mu.RLock()
			defer st.mu.RUnlock()
			latest, err := s.materializeLocked("doc", st)
			if err != nil {
				t.Fatal(err)
			}
			f := st.deltas[0].form.Load()
			if !f.frame {
				t.Fatal("setup: the stored delta is not a frame")
			}
			var th thawer
			if _, err := th.thawStep(f.b, c.backward); err != nil {
				t.Fatal(err)
			}
			whole, _, err := thawDelta(f.b)
			if err != nil {
				t.Fatal(err)
			}
			// The first byte of a detached subtree's values that has one:
			// its first value that is not empty.
			changed := slices.Clone(f.b)
			at := -1
			for _, sp := range th.spans {
				if hasValue(whole.Ops[sp.op].Subtree) {
					at = int(sp.text)
					break
				}
			}
			if at < 0 {
				t.Fatal("setup: no detached subtree has a value")
			}
			changed[at] ^= 0x01
			st.deltas[0].form.Store(&partForm{b: changed, frame: true, sum: f.sum, size: f.size})
			_, _, err = st.walk(latest, []int{c.target}, c.fwd, func(int, *dom.Node, bool) error { return nil })
			if err == nil || !strings.Contains(err.Error(), "document content differs from recorded subtree") {
				t.Fatalf("walking through a changed detached subtree: %v", err)
			}
			st.deltas[0].form.Store(f)
			if _, _, err := st.walk(latest, []int{c.target}, c.fwd, func(int, *dom.Node, bool) error { return nil }); err != nil {
				t.Fatalf("the unchanged frame: %v", err)
			}
		})
	}
}

// hasValue reports whether a node of sub has a value, or an attribute
// one, that is not empty.
func hasValue(sub *dom.Node) bool {
	for _, n := range dom.Preorder(sub) {
		if n.Value != "" {
			return true
		}
		for _, a := range n.Attrs {
			if a.Value != "" {
				return true
			}
		}
	}
	return false
}

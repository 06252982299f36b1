package delta

import (
	"cmp"
	"fmt"
	"slices"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Apply transforms doc (in place) from the version the delta was
// computed against into the next version. doc must be the Document
// node, with XIDs assigned consistently with the delta.
//
// The engine is deterministic and order-independent with respect to
// d.Ops:
//
//  1. value and attribute operations are applied through an XID index;
//  2. moved subtrees are detached (they keep their identity);
//  3. deleted subtrees are detached and verified against the op's
//     recorded content;
//  4. inserted subtrees are indexed: every node of one must carry an
//     XID of its own (a hand-built insert too), one that neither the
//     document nor other inserted content has, or nothing is attached;
//  5. inserted subtrees and moved subtrees are attached, grouped by
//     target parent and in ascending target position; a group may go
//     under a node of inserted content (a move into a fresh subtree).
//
// On error the document may be partially modified; callers that need
// atomicity should apply to a clone (see ApplyClone).
//
// Apply never panics: deltas arrive from untrusted storage and the
// network, so beyond the explicit validation below any residual panic
// (e.g. an out-of-range tree mutation a corrupt delta slips past the
// checks) is converted into an error.
func Apply(doc *dom.Node, d *Delta) error {
	a := applier{doc: doc, clone: true}
	return a.apply(d, false, nil)
}

// ApplyClone applies the delta to a deep copy of doc and returns it;
// doc itself is never modified, even on error.
func ApplyClone(doc *dom.Node, d *Delta) (*dom.Node, error) {
	clone := doc.Clone()
	if err := Apply(clone, d); err != nil {
		return nil, err
	}
	return clone, nil
}

// A Replay steps one document through a chain of deltas — forward, or
// backward through their inverses — the way a store rebuilds a version
// from stored deltas. Each step makes every check Apply makes, and
// costs less than Apply(doc, d) or Apply(doc, d.Invert()):
//
//   - one XID index serves every step: each step keeps it current as it
//     detaches and attaches, where Apply rebuilds it from the whole
//     document;
//   - the deltas are the Replay's to consume: a subtree a step attaches
//     is the op's own, not a clone of it, so a delta must not be used
//     again once stepped through (decode it afresh);
//   - a backward step reads each op inverted where it stands, with no
//     inverted delta built and none sorted — Apply does not depend on
//     the order of the ops;
//   - a step may check the subtrees it detaches through a function of
//     its caller's instead of against the ops' content, so a store that
//     holds a delta in a form of its own need not build the content a
//     step only compares and drops.
//
// After an error the document may be partly changed and the Replay
// must be dropped.
type Replay struct {
	a applier
}

// NewReplay returns a Replay positioned at doc, the Document node of
// a version with its XIDs. doc is changed in place by every step.
func NewReplay(doc *dom.Node) *Replay {
	return &Replay{a: applier{doc: doc}}
}

// Step applies d, taking doc to the version after it, or when backward
// the inverse of d, taking doc to the version before it. d is consumed.
//
// With differs nil, each subtree the step detaches — a delete's going
// forward, an insert's going backward — is checked as Apply checks it:
// it must be Equal to the op's Subtree, when the op has one. Otherwise
// differs checks it and the Subtrees of the ops whose subtrees the step
// detaches are not read, and may be nil: differs(i, n) returns "" when
// n, the subtree op i detaches, is Equal to the content op i records,
// and describes the first difference when it is not.
func (r *Replay) Step(d *Delta, backward bool, differs func(i int, n *dom.Node) string) error {
	return r.a.apply(d, backward, differs)
}

// applier is the engine behind Apply and Replay: a document, its XID
// index (built on first use), whether attached subtrees are cloned from
// the ops or taken from them, and the attachment list the steps reuse.
type applier struct {
	doc     *dom.Node
	index   *xid.Table[*dom.Node]
	clone   bool
	pending []attachment
}

// attachment is a subtree waiting to be attached at pos under the node
// with XID parent.
type attachment struct {
	parent int64
	pos    int
	node   *dom.Node
}

// groupEnd returns the end of the group of attachments (one parent)
// that starts at i.
func groupEnd(pending []attachment, i int) int {
	j := i + 1
	for j < len(pending) && pending[j].parent == pending[i].parent {
		j++
	}
	return j
}

// apply applies d to a.doc, or its inverse when backward, in the five
// phases Apply documents, checking detached subtrees with differs when
// it is not nil (see Replay.Step).
func (a *applier) apply(d *Delta, backward bool, differs func(int, *dom.Node) string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("delta: apply: internal panic on corrupt delta: %v", r)
		}
	}()
	if d.Empty() {
		return nil
	}
	if a.index == nil {
		a.index = buildIndex(a.doc)
	}
	index := a.index

	// Phase 1: updates and attribute ops.
	for i := range d.Ops {
		if err := applyValueOp(index, &d.Ops[i], backward); err != nil {
			return err
		}
	}

	// Phase 2: detach moved subtrees. A move undone goes from its
	// target place back to its source.
	pending := a.pending[:0]
	for i := range d.Ops {
		mv := &d.Ops[i]
		if mv.Kind != KindMove {
			continue
		}
		from, to, toPos := mv.Parent, mv.ToParent, mv.ToPos
		if backward {
			from, to, toPos = mv.ToParent, mv.Parent, mv.Pos
		}
		n := index.Get(mv.XID)
		if n == nil {
			return fmt.Errorf("delta: move: no node with XID %d", mv.XID)
		}
		if n.Parent == nil || n.Parent.XID != from {
			return fmt.Errorf("delta: move %d: parent is %v, op says %d", mv.XID, parentXID(n), from)
		}
		n.Detach()
		pending = append(pending, attachment{parent: to, pos: int(toPos), node: n})
	}

	// An insert and a delete share their fields, so undoing one is
	// doing the other: which detaches and which attaches depends only on
	// the direction.
	detach, attach := KindDelete, KindInsert
	if backward {
		detach, attach = attach, detach
	}

	// Phase 3: detach deleted subtrees.
	for i := range d.Ops {
		del := &d.Ops[i]
		if del.Kind != detach {
			continue
		}
		n := index.Get(del.XID)
		if n == nil {
			return fmt.Errorf("delta: delete: no node with XID %d", del.XID)
		}
		if n.Parent == nil || n.Parent.XID != del.Parent {
			return fmt.Errorf("delta: delete %d: parent is %v, op says %d", del.XID, parentXID(n), del.Parent)
		}
		if differs != nil {
			if diag := differs(i, n); diag != "" {
				return fmt.Errorf("delta: delete %d: document content differs from recorded subtree: %s", del.XID, diag)
			}
		} else if del.Subtree != nil && !dom.Equal(n, del.Subtree) {
			return fmt.Errorf("delta: delete %d: document content differs from recorded subtree: %s",
				del.XID, dom.Diagnose(n, del.Subtree))
		}
		n.Detach()
		// The detached nodes are gone; drop them from the index so a
		// corrupt delta cannot re-attach below a deleted node.
		dom.WalkPre(n, func(x *dom.Node) bool {
			index.Delete(x.XID)
			return true
		})
	}

	// Phase 4: prepare insertions. Their nodes join the index now, so
	// that an XID the document or earlier content already has is
	// refused before anything is attached.
	for i := range d.Ops {
		ins := &d.Ops[i]
		if ins.Kind != attach {
			continue
		}
		if ins.Subtree == nil {
			return fmt.Errorf("delta: insert %d: missing subtree content", ins.XID)
		}
		sub := ins.Subtree
		if a.clone {
			sub = sub.Clone()
		}
		if err := indexContent(index, sub); err != nil {
			return fmt.Errorf("delta: insert %d: %w", ins.XID, err)
		}
		pending = append(pending, attachment{parent: ins.Parent, pos: int(ins.Pos), node: sub})
	}

	// Phase 5: attach. A group is the attachments under one parent,
	// attached in ascending position (ties in op order), groups in
	// ascending parent XID. Every node an attachment can name is in the
	// index by now — moved nodes stay in it, inserted ones joined it in
	// phase 4 — so a group whose parent is missing can never attach,
	// and nothing is attached unless every group can be.
	slices.SortStableFunc(pending, func(x, y attachment) int {
		return cmp.Or(cmp.Compare(x.parent, y.parent), cmp.Compare(x.pos, y.pos))
	})
	a.pending = pending[:0] // the next step reuses the storage
	missing := 0
	for i, j := 0, 0; i < len(pending); i = j {
		j = groupEnd(pending, i)
		if index.Get(pending[i].parent) == nil {
			missing++
		}
	}
	if missing > 0 {
		return fmt.Errorf("delta: %d attachment group(s) reference unknown parents", missing)
	}
	for i, j := 0, 0; i < len(pending); i = j {
		j = groupEnd(pending, i)
		p := pending[i].parent
		parent := index.Get(p)
		// One growth for the group, to exactly what it needs, rather
		// than a doubling at the first attachment into a full slice: a
		// thawed or cloned parent has no room to spare, and a version a
		// walk rebuilds may be kept, in the cache, with its slack.
		if need := len(parent.Children) + j - i; cap(parent.Children) < need {
			kids := make([]*dom.Node, len(parent.Children), need)
			copy(kids, parent.Children)
			parent.Children = kids
		}
		for _, at := range pending[i:j] {
			if err := parent.InsertAt(at.pos, at.node); err != nil {
				return fmt.Errorf("delta: attach at %d[%d]: %w", p, at.pos, err)
			}
		}
	}
	return nil
}

// indexContent adds the nodes of an inserted subtree to the index. Each
// must carry an XID that neither the document nor any node indexed
// before it has.
func indexContent(index *xid.Table[*dom.Node], sub *dom.Node) error {
	var err error
	dom.WalkPre(sub, func(x *dom.Node) bool {
		switch {
		case x.XID == 0:
			err = fmt.Errorf("a %s node without an XID", x.Type)
		case index.Get(x.XID) != nil:
			err = fmt.Errorf("XID %d repeated", x.XID)
		default:
			index.Set(x.XID, x)
			return true
		}
		return false
	})
	return err
}

// applyValueOp applies an update or an attribute op, or its inverse
// when backward; other ops are left to the later phases.
func applyValueOp(index *xid.Table[*dom.Node], o *Op, backward bool) error {
	old, new := o.Old, o.New
	if backward {
		old, new = new, old
	}
	switch o.Kind {
	case KindUpdate:
		n := index.Get(o.XID)
		if n == nil {
			return fmt.Errorf("delta: update: no node with XID %d", o.XID)
		}
		if n.Type == dom.Document {
			// A Document's value is its DOCTYPE, which no op changes.
			return fmt.Errorf("delta: update %d: a document has no value to update", o.XID)
		}
		if n.Value != old {
			return fmt.Errorf("delta: update %d: value %q, op says %q", o.XID, n.Value, old)
		}
		n.Value = new
	case KindInsertAttr:
		if backward {
			return deleteAttr(index, o.XID, o.Name, o.New)
		}
		return insertAttr(index, o.XID, o.Name, o.New)
	case KindDeleteAttr:
		if backward {
			return insertAttr(index, o.XID, o.Name, o.Old)
		}
		return deleteAttr(index, o.XID, o.Name, o.Old)
	case KindUpdateAttr:
		n := index.Get(o.XID)
		if n == nil {
			return fmt.Errorf("delta: update-attribute: no node with XID %d", o.XID)
		}
		if v, exists := n.Attribute(o.Name); !exists {
			return fmt.Errorf("delta: update-attribute %d: %s absent", o.XID, o.Name)
		} else if v != old {
			return fmt.Errorf("delta: update-attribute %d: %s=%q, op says %q", o.XID, o.Name, v, old)
		}
		n.SetAttribute(o.Name, new)
	}
	return nil
}

func insertAttr(index *xid.Table[*dom.Node], x int64, name, value string) error {
	n := index.Get(x)
	if n == nil {
		return fmt.Errorf("delta: insert-attribute: no node with XID %d", x)
	}
	if _, exists := n.Attribute(name); exists {
		return fmt.Errorf("delta: insert-attribute %d: %s already present", x, name)
	}
	n.SetAttribute(name, value)
	return nil
}

func deleteAttr(index *xid.Table[*dom.Node], x int64, name, old string) error {
	n := index.Get(x)
	if n == nil {
		return fmt.Errorf("delta: delete-attribute: no node with XID %d", x)
	}
	if v, exists := n.Attribute(name); !exists {
		return fmt.Errorf("delta: delete-attribute %d: %s absent", x, name)
	} else if v != old {
		return fmt.Errorf("delta: delete-attribute %d: %s=%q, op says %q", x, name, v, old)
	}
	n.RemoveAttribute(name)
	return nil
}

// buildIndex indexes doc's nodes by XID, the table told how many are
// coming: a document's XIDs are not written in ascending order (its
// root, last in post-order, comes first), and a table that had to
// guess its range from the writes so far would put the first ones in
// its overflow.
func buildIndex(doc *dom.Node) *xid.Table[*dom.Node] {
	index := new(xid.Table[*dom.Node])
	index.Expect(doc.Size())
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			index.Set(n.XID, n)
		}
		return true
	})
	return index
}

func parentXID(n *dom.Node) int64 {
	if n.Parent == nil {
		return 0
	}
	return n.Parent.XID
}

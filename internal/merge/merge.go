// Package merge implements the paper's synchronization scenario
// (Section 2, "Learning about changes"): "different users may modify
// the same XML document off-line, and later want to synchronize their
// respective versions. The diff algorithm could be used to detect and
// describe the modifications in order to detect conflicts and solve
// some of them."
//
// ThreeWay takes a base document and two deltas independently computed
// against it ("ours" and "theirs", each the output of diff.Diff) and
// produces a merged document: ours applies in full, then theirs is
// rebased on top through the persistent identifiers — position-free
// detachment by XID, neighbor-anchored re-attachment, and fresh-XID
// renumbering so both sides' insertions coexist. Operations that
// genuinely collide (both update the same node differently, one edits
// inside a subtree the other deletes, ...) are reported as Conflicts
// and resolved in favor of ours.
package merge

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// ConflictKind classifies a merge conflict.
type ConflictKind uint8

// Conflict kinds.
const (
	// updateUpdate: both sides updated the same value differently.
	updateUpdate ConflictKind = iota
	// updateDelete: theirs updates a node ours deleted.
	updateDelete
	// deleteModify: theirs deletes a subtree ours modified inside.
	deleteModify
	// moveMove: both sides moved the same node to different places.
	moveMove
	// moveDelete: theirs moves a node ours deleted.
	moveDelete
	// orphaned: theirs inserts into (or moves into) a parent that does
	// not exist after ours' changes.
	orphaned
	// attrConflict: both sides changed the same attribute differently,
	// or theirs changes an attribute of a deleted node.
	attrConflict
)

// String returns a short name for the conflict kind.
func (k ConflictKind) String() string {
	switch k {
	case updateUpdate:
		return "update/update"
	case updateDelete:
		return "update/delete"
	case deleteModify:
		return "delete/modify"
	case moveMove:
		return "move/move"
	case moveDelete:
		return "move/delete"
	case orphaned:
		return "orphaned"
	case attrConflict:
		return "attribute"
	default:
		return fmt.Sprintf("conflict(%d)", uint8(k))
	}
}

// Conflict reports one of theirs' operations that could not be applied
// cleanly; ours' view won.
type Conflict struct {
	Kind   ConflictKind
	XID    int64
	Theirs delta.Op
	Detail string
}

func (c Conflict) String() string {
	return fmt.Sprintf("%s at XID %d: %s", c.Kind, c.XID, c.Detail)
}

// Result is the outcome of a three-way merge.
type Result struct {
	// Doc is the merged document: base + ours + rebased theirs.
	Doc *dom.Node
	// Conflicts lists theirs' operations that were skipped (or, for
	// moves, rolled back).
	Conflicts []Conflict
	// Applied counts theirs' operations merged in; Converged counts
	// those skipped because ours already had the same effect.
	Applied   int
	Converged int
}

// ThreeWay merges two independent deltas over a common base. base must
// carry the XIDs both deltas were computed against (the usual case:
// both sides ran diff.Diff against the same stored version). base is
// not modified. Conflict policy: ours wins; swap the arguments for the
// opposite policy.
func ThreeWay(base *dom.Node, ours, theirs *delta.Delta) (*Result, error) {
	if base == nil || base.Type != dom.Document {
		return nil, fmt.Errorf("merge: base must be a Document")
	}
	theirsDoc, err := delta.ApplyClone(base, theirs)
	if err != nil {
		return nil, fmt.Errorf("merge: theirs does not apply to base: %w", err)
	}
	merged, err := delta.ApplyClone(base, ours)
	if err != nil {
		return nil, fmt.Errorf("merge: ours does not apply to base: %w", err)
	}
	var mergedMax int64
	dom.WalkPre(merged, func(n *dom.Node) bool {
		if n.XID > mergedMax {
			mergedMax = n.XID
		}
		return true
	})
	next := mergedMax + 1
	if theirs.NextXID > next {
		next = theirs.NextXID
	}
	m := &merger{
		res:       &Result{Doc: merged},
		theirsIdx: indexByXID(theirsDoc),
		index:     indexByXID(merged),
		ours:      summarizeOurs(ours),
		remap:     make(map[int64]int64),
		alloc:     xid.NewAllocator(next),
	}

	// Mirror the apply engine's phasing so intra-delta dependencies in
	// theirs (a move into its own insert, a delete after a move-out)
	// keep working.
	for _, op := range theirs.Ops {
		m.applyValueOp(op)
	}
	for _, op := range theirs.Ops {
		if op.Kind == delta.KindMove {
			m.detachMove(op)
		}
	}
	for _, op := range theirs.Ops {
		if op.Kind == delta.KindDelete {
			m.applyDelete(op)
		}
	}
	for _, op := range theirs.Ops {
		if op.Kind == delta.KindInsert {
			m.prepareInsert(op)
		}
	}
	m.attachPending()
	return m.res, nil
}

// oursSummary captures what ours did, for conflict detection.
type oursSummary struct {
	deleted   map[int64]bool     // every XID removed by ours
	updates   map[int64]string   // XID -> new value
	moves     map[int64]delta.Op // XID -> move op
	attrs     map[attrKey]string // (XID, name) -> new value
	attrsGone map[attrKey]bool   // (XID, name) deleted
	touched   map[int64]bool     // XIDs ours modified in any way
}

type attrKey struct {
	xid  int64
	name string
}

func summarizeOurs(ours *delta.Delta) *oursSummary {
	s := &oursSummary{
		deleted:   make(map[int64]bool),
		updates:   make(map[int64]string),
		moves:     make(map[int64]delta.Op),
		attrs:     make(map[attrKey]string),
		attrsGone: make(map[attrKey]bool),
		touched:   make(map[int64]bool),
	}
	for _, o := range ours.Ops {
		switch o.Kind {
		case delta.KindDelete:
			dom.WalkPre(o.Subtree, func(n *dom.Node) bool {
				s.deleted[n.XID] = true
				return true
			})
			s.touched[o.Parent] = true
		case delta.KindInsert:
			s.touched[o.Parent] = true
		case delta.KindUpdate:
			s.updates[o.XID] = o.New
			s.touched[o.XID] = true
		case delta.KindMove:
			s.moves[o.XID] = o
			s.touched[o.XID] = true
			s.touched[o.Parent] = true
			s.touched[o.ToParent] = true
		case delta.KindInsertAttr, delta.KindUpdateAttr:
			s.attrs[attrKey{o.XID, o.Name}] = o.New
			s.touched[o.XID] = true
		case delta.KindDeleteAttr:
			s.attrsGone[attrKey{o.XID, o.Name}] = true
			s.touched[o.XID] = true
		}
	}
	return s
}

// pendingAttach is a subtree waiting for a parent in the merged
// document: an insert's fresh clone or a detached move.
type pendingAttach struct {
	parentTheirs int64     // parent XID in theirs' numbering
	node         *dom.Node // the subtree to attach (merged numbering)
	theirsNode   *dom.Node // the same node in theirs' document (anchoring)
	fallbackPos  int
	move         *delta.Op // non-nil for moves (rollback info below)
	origParent   *dom.Node
	origIdx      int
}

type merger struct {
	res       *Result
	theirsIdx map[int64]*dom.Node
	index     map[int64]*dom.Node
	ours      *oursSummary
	remap     map[int64]int64 // theirs-fresh XID -> merged XID
	alloc     *xid.Allocator
	pending   []pendingAttach
}

// translate maps one of theirs' XIDs into the merged numbering.
func (m *merger) translate(x int64) int64 {
	if nu, ok := m.remap[x]; ok {
		return nu
	}
	return x
}

func (m *merger) conflict(kind ConflictKind, x int64, op delta.Op, format string, args ...any) {
	m.res.Conflicts = append(m.res.Conflicts, Conflict{
		Kind: kind, XID: x, Theirs: op, Detail: fmt.Sprintf(format, args...),
	})
}

func (m *merger) applyValueOp(op delta.Op) {
	switch o := op; o.Kind {
	case delta.KindUpdate:
		n := m.index[o.XID]
		if n == nil {
			m.conflict(updateDelete, o.XID, op, "ours deleted the node theirs updates to %q", o.New)
			return
		}
		if oursNew, ok := m.ours.updates[o.XID]; ok {
			if oursNew == o.New {
				m.res.Converged++
			} else {
				m.conflict(updateUpdate, o.XID, op, "ours set %q, theirs set %q", oursNew, o.New)
			}
			return
		}
		if n.Value != o.Old {
			m.conflict(updateUpdate, o.XID, op, "value is %q, theirs expected %q", n.Value, o.Old)
			return
		}
		n.Value = o.New
		m.res.Applied++
	case delta.KindInsertAttr:
		m.applyAttr(op, o.XID, o.Name, "", o.New, false)
	case delta.KindDeleteAttr:
		m.applyAttr(op, o.XID, o.Name, o.Old, "", true)
	case delta.KindUpdateAttr:
		m.applyAttr(op, o.XID, o.Name, o.Old, o.New, false)
	}
}

func (m *merger) applyAttr(op delta.Op, x int64, name, old, new string, remove bool) {
	n := m.index[x]
	if n == nil {
		m.conflict(attrConflict, x, op, "ours deleted the node whose attribute %s theirs changes", name)
		return
	}
	key := attrKey{x, name}
	if oursVal, ok := m.ours.attrs[key]; ok {
		if !remove && oursVal == new {
			m.res.Converged++
		} else {
			m.conflict(attrConflict, x, op, "both sides changed attribute %s", name)
		}
		return
	}
	if m.ours.attrsGone[key] {
		if remove {
			m.res.Converged++
		} else {
			m.conflict(attrConflict, x, op, "ours deleted attribute %s theirs changes", name)
		}
		return
	}
	if remove {
		if v, ok := n.Attribute(name); !ok || v != old {
			m.conflict(attrConflict, x, op, "attribute %s is %q, theirs expected %q", name, v, old)
			return
		}
		n.RemoveAttribute(name)
		m.res.Applied++
		return
	}
	if old != "" { // update
		if v, ok := n.Attribute(name); !ok || v != old {
			m.conflict(attrConflict, x, op, "attribute %s is %q, theirs expected %q", name, v, old)
			return
		}
	} else if _, exists := n.Attribute(name); exists {
		m.conflict(attrConflict, x, op, "attribute %s already present", name)
		return
	}
	n.SetAttribute(name, new)
	m.res.Applied++
}

func (m *merger) detachMove(mv delta.Op) {
	n := m.index[mv.XID]
	if n == nil {
		m.conflict(moveDelete, mv.XID, mv, "ours deleted the node theirs moves")
		return
	}
	if oursMv, ok := m.ours.moves[mv.XID]; ok {
		if oursMv.ToParent == m.translate(mv.ToParent) && oursMv.ToPos == mv.ToPos {
			m.res.Converged++
		} else {
			m.conflict(moveMove, mv.XID, mv, "ours moved to %d[%d], theirs to %d[%d]",
				oursMv.ToParent, oursMv.ToPos, mv.ToParent, mv.ToPos)
		}
		return
	}
	origParent := n.Parent
	origIdx := n.Index()
	n.Detach()
	mvCopy := mv
	m.pending = append(m.pending, pendingAttach{
		parentTheirs: mv.ToParent,
		node:         n,
		theirsNode:   m.theirsIdx[mv.XID],
		fallbackPos:  int(mv.ToPos),
		move:         &mvCopy,
		origParent:   origParent,
		origIdx:      origIdx,
	})
}

func (m *merger) applyDelete(del delta.Op) {
	n := m.index[del.XID]
	if n == nil {
		m.res.Converged++ // ours already deleted it (or an ancestor)
		return
	}
	for _, x := range dom.Postorder(del.Subtree) {
		if m.ours.touched[x.XID] {
			m.conflict(deleteModify, del.XID, del,
				"ours modified XID %d inside the subtree theirs deletes", x.XID)
			return
		}
	}
	n.Detach()
	dom.WalkPre(n, func(x *dom.Node) bool {
		delete(m.index, x.XID)
		return true
	})
	m.res.Applied++
}

func (m *merger) prepareInsert(ins delta.Op) {
	if ins.Subtree == nil {
		m.conflict(orphaned, ins.XID, ins, "insert without content")
		return
	}
	clone := ins.Subtree.Clone()
	// Renumber: theirs' fresh identifiers would collide with ours'.
	dom.WalkPost(clone, func(n *dom.Node) bool {
		nu := m.alloc.Next()
		m.remap[n.XID] = nu
		n.XID = nu
		return true
	})
	m.pending = append(m.pending, pendingAttach{
		parentTheirs: ins.Parent,
		node:         clone,
		theirsNode:   m.theirsIdx[ins.XID],
		fallbackPos:  int(ins.Pos),
	})
}

// attachPending places inserts and moves, multi-pass so attachments
// into other pending subtrees resolve. Unattachable items become
// orphaned conflicts; orphaned moves are rolled back to their original
// location so no data is lost.
func (m *merger) attachPending() {
	pending := m.pending
	for len(pending) > 0 {
		var next []pendingAttach
		progress := false
		for _, item := range pending {
			parent := m.index[m.translate(item.parentTheirs)]
			if parent == nil {
				next = append(next, item)
				continue
			}
			pos := m.anchorPosition(parent, item)
			if err := parent.InsertAt(pos, item.node); err != nil {
				// anchorPosition clamps into range, so this means the
				// merged tree is already inconsistent; keep the data at
				// the end rather than losing it.
				parent.Append(item.node)
			}
			dom.WalkPre(item.node, func(x *dom.Node) bool {
				if x.XID != 0 {
					m.index[x.XID] = x
				}
				return true
			})
			m.res.Applied++
			progress = true
		}
		if !progress {
			for _, item := range pending {
				m.conflict(orphaned, item.node.XID, orphanOp(item),
					"target parent %d does not exist after ours' changes", item.parentTheirs)
				if item.move != nil {
					m.rollbackMove(item)
				}
			}
			return
		}
		pending = next
	}
}

// anchorPosition chooses where to attach: mimic the node's placement in
// theirs' document by locating the nearest sibling (by XID) that also
// lives under the target parent in the merged document.
func (m *merger) anchorPosition(parent *dom.Node, item pendingAttach) int {
	t := item.theirsNode
	if t != nil && t.Parent != nil {
		siblings := t.Parent.Children
		tIdx := t.Index()
		// Nearest surviving left sibling: attach right after it.
		for i := tIdx - 1; i >= 0; i-- {
			if s := m.index[m.translate(siblings[i].XID)]; s != nil && s.Parent == parent {
				return s.Index() + 1
			}
		}
		// Else nearest surviving right sibling: attach right before it.
		for i := tIdx + 1; i < len(siblings); i++ {
			if s := m.index[m.translate(siblings[i].XID)]; s != nil && s.Parent == parent {
				return s.Index()
			}
		}
	}
	if item.fallbackPos <= len(parent.Children) {
		return item.fallbackPos
	}
	return len(parent.Children)
}

// rollbackMove restores a move whose destination vanished.
func (m *merger) rollbackMove(item pendingAttach) {
	parent := item.origParent
	if parent == nil || m.index[parent.XID] == nil {
		// The original parent is gone too; keep the subtree at the end
		// of the root element rather than losing data.
		if root := m.res.Doc.Root(); root != nil {
			root.Append(item.node)
		}
		return
	}
	pos := item.origIdx
	if pos > len(parent.Children) {
		pos = len(parent.Children)
	}
	if err := parent.InsertAt(pos, item.node); err != nil {
		parent.Append(item.node) // never lose the rolled-back subtree
	}
}

func orphanOp(item pendingAttach) delta.Op {
	if item.move != nil {
		return *item.move
	}
	return delta.Op{Kind: delta.KindInsert, XID: item.node.XID, Parent: item.parentTheirs, Pos: int32(item.fallbackPos), Subtree: item.node}
}

func indexByXID(doc *dom.Node) map[int64]*dom.Node {
	idx := make(map[int64]*dom.Node)
	dom.WalkPre(doc, func(n *dom.Node) bool {
		if n.XID != 0 {
			idx[n.XID] = n
		}
		return true
	})
	return idx
}

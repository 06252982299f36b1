// Package delta implements the change representation model the paper
// adopts from Marian et al. (VLDB 2001): a delta is a set of elementary
// operations — subtree deletions, subtree insertions, value updates,
// attribute changes and subtree moves — expressed against persistent
// node identifiers (XIDs), itself stored as an XML document.
//
// Deltas here are "completed": a delete carries the removed subtree, an
// update carries both the old and the new value. A completed delta
// describes the transformation in both directions, so any delta can be
// inverted (Invert) and any version of a document reconstructed from
// any other version plus the connecting deltas (see package store).
package delta

import (
	"fmt"

	"xydiff/internal/dom"
)

// Kind identifies the elementary operation an Op performs.
type Kind uint8

// Operation kinds.
const (
	KindInsert Kind = iota
	KindDelete
	KindUpdate
	KindMove
	KindInsertAttr
	KindDeleteAttr
	KindUpdateAttr
)

// String returns the delta-XML element name for the kind.
func (k Kind) String() string {
	switch k {
	case KindInsert:
		return "insert"
	case KindDelete:
		return "delete"
	case KindUpdate:
		return "update"
	case KindMove:
		return "move"
	case KindInsertAttr:
		return "insert-attribute"
	case KindDeleteAttr:
		return "delete-attribute"
	case KindUpdateAttr:
		return "update-attribute"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Op is one elementary operation of a delta: its Kind and the fields
// that kind uses, every other field zero. Kinds share fields where they
// mean the same thing:
//
//	kind              XID         Parent, Pos    ToParent, ToPos  Subtree  Name  Old, New
//	insert            root        target place   -                content  -     -
//	delete            root        source place   -                content  -     -
//	move              root        source place   target place     -        -     -
//	update            node        -              -                -        -     both values
//	insert-attribute  element     -              -                -        name  New
//	delete-attribute  element     -              -                -        name  Old
//	update-attribute  element     -              -                -        name  both values
//
// A place is the Pos-th child (0-based) of the node whose XID is
// Parent: in the source document for a delete and a move's source, in
// the target document for an insert and a move's target (after the
// whole delta is applied, the subtree root sits at index Pos).
//
// An insert's or a delete's Subtree is its content pruned of any node
// that arrives or leaves by a move, every node carrying its XID, the
// root XID. A delete's content makes the delta completed and
// invertible; so do the old values of updates and attribute ops. On the
// wire the content's XIDs travel as the op's xidmap, the subtree's XIDs
// in post-order (package xid); in memory they are on the nodes.
//
// Attributes are not nodes in this model (they have no XIDs and no
// order): an attribute op names its owner element's XID and the
// attribute's name. A move relocates a subtree whose content never
// appears in the delta, which makes it much cheaper than a delete and
// an insert, as the paper has it.
//
// Positions are int32, as in the diff's flattened trees: it keeps an
// op at 96 bytes, where int positions would pad it to 104.
type Op struct {
	Kind       Kind
	Pos, ToPos int32
	XID        int64
	Parent     int64
	ToParent   int64
	Subtree    *dom.Node
	Name       string
	Old, New   string
}

// knownKind reports whether k is one of the seven operation kinds.
func knownKind(k Kind) bool { return k <= KindUpdateAttr }

// invert turns o, of a known kind, into the op that undoes it: an
// insert and a delete swap kinds, as do an attribute's insert and
// delete, a move swaps its places, and every kind swaps its old and new
// values.
func (o *Op) invert() {
	switch o.Kind {
	case KindInsert:
		o.Kind = KindDelete
	case KindDelete:
		o.Kind = KindInsert
	case KindMove:
		o.Parent, o.Pos, o.ToParent, o.ToPos = o.ToParent, o.ToPos, o.Parent, o.Pos
	case KindInsertAttr:
		o.Kind = KindDeleteAttr
	case KindDeleteAttr:
		o.Kind = KindInsertAttr
	}
	o.Old, o.New = o.New, o.Old
}

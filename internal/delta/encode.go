package delta

import (
	"bytes"
	"fmt"
	"io"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// WriteTo serializes the delta as XML, operation by operation, straight
// from the ops: the bytes are those of ToDoc().WriteTo without the
// intermediate document (which clones every inserted and deleted
// subtree). It errors, before writing anything, on an operation type
// the package does not know.
func (d *Delta) WriteTo(w io.Writer) (int64, error) {
	if err := d.checkOps(); err != nil {
		return 0, err
	}
	return dom.EncodeTo(w, d.encode)
}

// checkOps refuses an operation type the package does not know.
func (d *Delta) checkOps() error {
	for _, op := range d.Ops {
		switch op.(type) {
		case Insert, Delete, Update, Move, InsertAttr, DeleteAttr, UpdateAttr:
		default:
			return fmt.Errorf("delta: serialize: unknown op type %T", op)
		}
	}
	return nil
}

// encode writes the delta to e. Numbers and XID maps are written with
// nothing allocated, so a counting Encoder sizes a delta for free.
func (d *Delta) encode(e *dom.Encoder) {
	e.StartTag("delta")
	if d.NextXID != 0 {
		e.AttrInt("nextxid", d.NextXID)
	}
	e.EndTag(len(d.Ops) == 0)
	for _, op := range d.Ops {
		encodeOp(e, op)
	}
	if len(d.Ops) > 0 {
		e.EndElement("delta")
	}
}

// encodeOp writes one operation element. Attributes are written sorted
// by name, the order the canonical serializer gives opToElement's.
func encodeOp(e *dom.Encoder, op Op) {
	switch o := op.(type) {
	case Insert:
		encodeSubtreeOp(e, "insert", o.XID, o.XIDMap, o.Parent, o.Pos, o.Subtree)
	case Delete:
		encodeSubtreeOp(e, "delete", o.XID, o.XIDMap, o.Parent, o.Pos, o.Subtree)
	case Update:
		e.StartTag("update")
		e.AttrInt("xid", o.XID)
		e.EndTag(false)
		encodeValue(e, "old", o.Old)
		encodeValue(e, "new", o.New)
		e.EndElement("update")
	case Move:
		e.StartTag("move")
		e.AttrInt("from-parent", o.FromParent)
		e.AttrInt("from-pos", int64(o.FromPos)+1)
		e.AttrInt("to-parent", o.ToParent)
		e.AttrInt("to-pos", int64(o.ToPos)+1)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case InsertAttr:
		e.StartTag("insert-attribute")
		e.Attr("name", o.Name)
		e.Attr("value", o.Value)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case DeleteAttr:
		e.StartTag("delete-attribute")
		e.Attr("name", o.Name)
		e.Attr("old", o.Old)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case UpdateAttr:
		e.StartTag("update-attribute")
		e.Attr("name", o.Name)
		e.Attr("new", o.New)
		e.Attr("old", o.Old)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	}
}

func encodeSubtreeOp(e *dom.Encoder, name string, x int64, m xid.Map, parent int64, pos int, sub *dom.Node) {
	var xidmap [64]byte // most maps fit; a longer one grows onto the heap
	e.StartTag(name)
	e.AttrInt("parent", parent)
	e.AttrInt("pos", int64(pos)+1)
	e.AttrInt("xid", x)
	e.AttrRaw("xidmap", m.AppendTo(xidmap[:0]))
	e.EndTag(sub == nil)
	if sub != nil {
		// XIDs need no stripping: the serializer never writes them,
		// the op's xidmap attribute carries them.
		e.Node(sub)
		e.EndElement(name)
	}
}

// encodeValue writes <name>v</name>, or <name/> for the empty string.
func encodeValue(e *dom.Encoder, name, v string) {
	e.StartTag(name)
	e.EndTag(v == "")
	if v != "" {
		e.Text(v)
		e.EndElement(name)
	}
}

// MarshalText renders the delta as XML bytes.
func (d *Delta) MarshalText() ([]byte, error) {
	var b bytes.Buffer
	if _, err := d.WriteTo(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// Size returns the size in bytes of the delta's XML serialization, the
// quality measure used throughout the paper's Section 6. Nothing is
// written or allocated: a counting Encoder walks the operations. A
// delta of unknown ops has size 0.
func (d *Delta) Size() int {
	if d.checkOps() != nil {
		return 0
	}
	var e dom.Encoder // no writer: count only
	d.encode(&e)
	n, _ := e.Flush()
	return int(n)
}

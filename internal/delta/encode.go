package delta

import (
	"fmt"
	"io"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// WriteTo serializes the delta as XML, operation by operation, straight
// from the ops: the bytes are those of ToDoc().WriteTo without the
// intermediate document (which clones every inserted and deleted
// subtree). It errors, before writing anything, on an operation kind
// the package does not know.
func (d *Delta) WriteTo(w io.Writer) (int64, error) {
	if err := d.checkOps(); err != nil {
		return 0, err
	}
	return dom.EncodeTo(w, d.encode)
}

// checkOps refuses an operation kind the package does not know.
func (d *Delta) checkOps() error {
	for i := range d.Ops {
		if k := d.Ops[i].Kind; !knownKind(k) {
			return fmt.Errorf("delta: serialize: unknown op kind %d", uint8(k))
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
	for i := range d.Ops {
		encodeOp(e, &d.Ops[i])
	}
	if len(d.Ops) > 0 {
		e.EndElement("delta")
	}
}

// encodeOp writes one operation element. Attributes are written sorted
// by name, the order the canonical serializer gives opToElement's.
func encodeOp(e *dom.Encoder, o *Op) {
	switch o.Kind {
	case KindInsert, KindDelete:
		encodeSubtreeOp(e, o)
	case KindUpdate:
		e.StartTag("update")
		e.AttrInt("xid", o.XID)
		e.EndTag(false)
		encodeValue(e, "old", o.Old)
		encodeValue(e, "new", o.New)
		e.EndElement("update")
	case KindMove:
		e.StartTag("move")
		e.AttrInt("from-parent", o.Parent)
		e.AttrInt("from-pos", int64(o.Pos)+1)
		e.AttrInt("to-parent", o.ToParent)
		e.AttrInt("to-pos", int64(o.ToPos)+1)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case KindInsertAttr:
		e.StartTag("insert-attribute")
		e.Attr("name", o.Name)
		e.Attr("value", o.New)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case KindDeleteAttr:
		e.StartTag("delete-attribute")
		e.Attr("name", o.Name)
		e.Attr("old", o.Old)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	case KindUpdateAttr:
		e.StartTag("update-attribute")
		e.Attr("name", o.Name)
		e.Attr("new", o.New)
		e.Attr("old", o.Old)
		e.AttrInt("xid", o.XID)
		e.EndTag(true)
	}
}

// encodeSubtreeOp writes an insert or a delete. Its xidmap is its
// subtree's XIDs, read off the nodes as it is written; the nodes' XIDs
// need no stripping, since the serializer never writes them.
func encodeSubtreeOp(e *dom.Encoder, o *Op) {
	name := o.Kind.String()
	var xidmap [64]byte // most maps fit; a longer one grows onto the heap
	e.StartTag(name)
	e.AttrInt("parent", o.Parent)
	e.AttrInt("pos", int64(o.Pos)+1)
	e.AttrInt("xid", o.XID)
	e.AttrRaw("xidmap", xid.AppendOf(xidmap[:0], o.Subtree))
	e.EndTag(o.Subtree == nil)
	if o.Subtree != nil {
		e.Node(o.Subtree)
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
	return d.AppendXML(nil)
}

// AppendXML appends the delta's XML, the bytes WriteTo writes, to b and
// returns the extended slice, growing it as append does: a caller that
// sizes b for the delta encodes it with no other buffer. It errors, with
// b unchanged, on an operation kind the package does not know.
func (d *Delta) AppendXML(b []byte) ([]byte, error) {
	if err := d.checkOps(); err != nil {
		return b, err
	}
	return dom.AppendEncode(b, d.encode), nil
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

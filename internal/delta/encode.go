package delta

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// WriteTo serializes the delta as XML, operation by operation, straight
// from the ops: the bytes are those of ToDoc().WriteTo without the
// intermediate document (which clones every inserted and deleted
// subtree). It errors, before writing anything, on an operation type
// the package does not know.
func (d *Delta) WriteTo(w io.Writer) (int64, error) {
	for _, op := range d.Ops {
		switch op.(type) {
		case Insert, Delete, Update, Move, InsertAttr, DeleteAttr, UpdateAttr:
		default:
			return 0, fmt.Errorf("delta: serialize: unknown op type %T", op)
		}
	}
	e := dom.NewEncoder(w)
	var root []dom.Attr
	if d.NextXID != 0 {
		root = []dom.Attr{{Name: "nextxid", Value: itoa(d.NextXID)}}
	}
	e.StartElement("delta", root, len(d.Ops) == 0)
	for _, op := range d.Ops {
		encodeOp(e, op)
	}
	if len(d.Ops) > 0 {
		e.EndElement("delta")
	}
	return e.Flush()
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// encodeOp writes one operation element. Attributes are listed sorted
// by name, the order the canonical serializer gives opToElement's.
func encodeOp(e *dom.Encoder, op Op) {
	switch o := op.(type) {
	case Insert:
		encodeSubtreeOp(e, "insert", o.XID, o.XIDMap, o.Parent, o.Pos, o.Subtree)
	case Delete:
		encodeSubtreeOp(e, "delete", o.XID, o.XIDMap, o.Parent, o.Pos, o.Subtree)
	case Update:
		e.StartElement("update", []dom.Attr{{Name: "xid", Value: itoa(o.XID)}}, false)
		encodeValue(e, "old", o.Old)
		encodeValue(e, "new", o.New)
		e.EndElement("update")
	case Move:
		e.StartElement("move", []dom.Attr{
			{Name: "from-parent", Value: itoa(o.FromParent)},
			{Name: "from-pos", Value: itoa(int64(o.FromPos) + 1)},
			{Name: "to-parent", Value: itoa(o.ToParent)},
			{Name: "to-pos", Value: itoa(int64(o.ToPos) + 1)},
			{Name: "xid", Value: itoa(o.XID)},
		}, true)
	case InsertAttr:
		e.StartElement("insert-attribute", []dom.Attr{
			{Name: "name", Value: o.Name},
			{Name: "value", Value: o.Value},
			{Name: "xid", Value: itoa(o.XID)},
		}, true)
	case DeleteAttr:
		e.StartElement("delete-attribute", []dom.Attr{
			{Name: "name", Value: o.Name},
			{Name: "old", Value: o.Old},
			{Name: "xid", Value: itoa(o.XID)},
		}, true)
	case UpdateAttr:
		e.StartElement("update-attribute", []dom.Attr{
			{Name: "name", Value: o.Name},
			{Name: "new", Value: o.New},
			{Name: "old", Value: o.Old},
			{Name: "xid", Value: itoa(o.XID)},
		}, true)
	}
}

func encodeSubtreeOp(e *dom.Encoder, name string, x int64, m xid.Map, parent int64, pos int, sub *dom.Node) {
	e.StartElement(name, []dom.Attr{
		{Name: "parent", Value: itoa(parent)},
		{Name: "pos", Value: itoa(int64(pos) + 1)},
		{Name: "xid", Value: itoa(x)},
		{Name: "xidmap", Value: m.String()},
	}, sub == nil)
	if sub != nil {
		// XIDs need no stripping: the serializer never writes them,
		// the op's xidmap attribute carries them.
		e.Node(sub)
		e.EndElement(name)
	}
}

// encodeValue writes <name>v</name>, or <name/> for the empty string.
func encodeValue(e *dom.Encoder, name, v string) {
	e.StartElement(name, nil, v == "")
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
// materialized: the encoder writes into a counting sink.
func (d *Delta) Size() int {
	n, _ := d.WriteTo(io.Discard) // a delta of unknown ops has size 0
	return int(n)
}

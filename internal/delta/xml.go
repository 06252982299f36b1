package delta

import (
	"fmt"
	"strconv"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// The delta itself is an XML document (the paper stores deltas in the
// repository and queries them like any other document). Positions are
// serialized 1-based, as in the paper's examples; in-memory ops use
// 0-based positions.

// ToDoc renders the delta as an XML document tree, for a caller that
// wants to query or edit the delta as a document; WriteTo encodes the
// same bytes without building it. It errors on an operation kind the
// package does not know instead of panicking.
func (d *Delta) ToDoc() (*dom.Node, error) {
	doc := dom.NewDocument()
	root := dom.NewElement("delta")
	if d.NextXID != 0 {
		root.SetAttribute("nextxid", strconv.FormatInt(d.NextXID, 10))
	}
	doc.Append(root)
	for i := range d.Ops {
		e, err := opToElement(&d.Ops[i])
		if err != nil {
			return nil, err
		}
		root.Append(e)
	}
	return doc, nil
}

func opToElement(o *Op) (*dom.Node, error) {
	if !knownKind(o.Kind) {
		return nil, fmt.Errorf("delta: serialize: unknown op kind %d", uint8(o.Kind))
	}
	e := dom.NewElement(o.Kind.String())
	e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
	switch o.Kind {
	case KindInsert, KindDelete:
		e.SetAttribute("xidmap", string(xid.AppendOf(nil, o.Subtree)))
		e.SetAttribute("parent", strconv.FormatInt(o.Parent, 10))
		e.SetAttribute("pos", strconv.Itoa(int(o.Pos)+1))
		if o.Subtree != nil {
			e.Append(stripXIDs(o.Subtree.Clone()))
		}
	case KindUpdate:
		oldEl := dom.NewElement("old")
		if o.Old != "" {
			oldEl.Append(dom.NewText(o.Old))
		}
		newEl := dom.NewElement("new")
		if o.New != "" {
			newEl.Append(dom.NewText(o.New))
		}
		e.Append(oldEl, newEl)
	case KindMove:
		e.SetAttribute("from-parent", strconv.FormatInt(o.Parent, 10))
		e.SetAttribute("from-pos", strconv.Itoa(int(o.Pos)+1))
		e.SetAttribute("to-parent", strconv.FormatInt(o.ToParent, 10))
		e.SetAttribute("to-pos", strconv.Itoa(int(o.ToPos)+1))
	case KindInsertAttr:
		e.SetAttribute("name", o.Name)
		e.SetAttribute("value", o.New)
	case KindDeleteAttr:
		e.SetAttribute("name", o.Name)
		e.SetAttribute("old", o.Old)
	case KindUpdateAttr:
		e.SetAttribute("name", o.Name)
		e.SetAttribute("old", o.Old)
		e.SetAttribute("new", o.New)
	}
	return e, nil
}

// stripXIDs clears XIDs on a cloned subtree before serialization; they
// are carried by the op's xidmap attribute instead.
func stripXIDs(n *dom.Node) *dom.Node {
	dom.WalkPre(n, func(x *dom.Node) bool {
		x.XID = 0
		return true
	})
	return n
}

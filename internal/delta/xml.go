package delta

import (
	"fmt"
	"strconv"

	"xydiff/internal/dom"
)

// The delta itself is an XML document (the paper stores deltas in the
// repository and queries them like any other document). Positions are
// serialized 1-based, as in the paper's examples; in-memory ops use
// 0-based positions.

// ToDoc renders the delta as an XML document tree, for a caller that
// wants to query or edit the delta as a document; WriteTo encodes the
// same bytes without building it. It errors on an operation type the
// package does not know instead of panicking.
func (d *Delta) ToDoc() (*dom.Node, error) {
	doc := dom.NewDocument()
	root := dom.NewElement("delta")
	if d.NextXID != 0 {
		root.SetAttribute("nextxid", strconv.FormatInt(d.NextXID, 10))
	}
	doc.Append(root)
	for _, op := range d.Ops {
		e, err := opToElement(op)
		if err != nil {
			return nil, err
		}
		root.Append(e)
	}
	return doc, nil
}

func opToElement(op Op) (*dom.Node, error) {
	switch o := op.(type) {
	case Insert:
		e := dom.NewElement("insert")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("xidmap", o.XIDMap.String())
		e.SetAttribute("parent", strconv.FormatInt(o.Parent, 10))
		e.SetAttribute("pos", strconv.Itoa(o.Pos+1))
		if o.Subtree != nil {
			e.Append(stripXIDs(o.Subtree.Clone()))
		}
		return e, nil
	case Delete:
		e := dom.NewElement("delete")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("xidmap", o.XIDMap.String())
		e.SetAttribute("parent", strconv.FormatInt(o.Parent, 10))
		e.SetAttribute("pos", strconv.Itoa(o.Pos+1))
		if o.Subtree != nil {
			e.Append(stripXIDs(o.Subtree.Clone()))
		}
		return e, nil
	case Update:
		e := dom.NewElement("update")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		oldEl := dom.NewElement("old")
		if o.Old != "" {
			oldEl.Append(dom.NewText(o.Old))
		}
		newEl := dom.NewElement("new")
		if o.New != "" {
			newEl.Append(dom.NewText(o.New))
		}
		e.Append(oldEl, newEl)
		return e, nil
	case Move:
		e := dom.NewElement("move")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("from-parent", strconv.FormatInt(o.FromParent, 10))
		e.SetAttribute("from-pos", strconv.Itoa(o.FromPos+1))
		e.SetAttribute("to-parent", strconv.FormatInt(o.ToParent, 10))
		e.SetAttribute("to-pos", strconv.Itoa(o.ToPos+1))
		return e, nil
	case InsertAttr:
		e := dom.NewElement("insert-attribute")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("name", o.Name)
		e.SetAttribute("value", o.Value)
		return e, nil
	case DeleteAttr:
		e := dom.NewElement("delete-attribute")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("name", o.Name)
		e.SetAttribute("old", o.Old)
		return e, nil
	case UpdateAttr:
		e := dom.NewElement("update-attribute")
		e.SetAttribute("xid", strconv.FormatInt(o.XID, 10))
		e.SetAttribute("name", o.Name)
		e.SetAttribute("old", o.Old)
		e.SetAttribute("new", o.New)
		return e, nil
	default:
		return nil, fmt.Errorf("delta: serialize: unknown op type %T", op)
	}
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

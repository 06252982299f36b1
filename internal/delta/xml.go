package delta

import (
	"fmt"
	"io"
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

// Parse reads a delta from its XML serialization.
func Parse(r io.Reader) (*Delta, error) {
	doc, err := dom.ParseWithOptions(r, parseOptions())
	if err != nil {
		return nil, err
	}
	return FromDoc(doc)
}

// ParseBytes reads a delta from a serialization the caller already
// holds — a stored record, a response body — without the copy a reader
// costs. src is not retained.
func ParseBytes(src []byte) (*Delta, error) {
	doc, err := dom.ParseBytes(src, parseOptions())
	if err != nil {
		return nil, err
	}
	return FromDoc(doc)
}

// ParseString reads a delta from a string.
func ParseString(s string) (*Delta, error) { return ParseBytes([]byte(s)) }

// parseOptions keep everything. Whitespace must be preserved: update
// values and text subtrees may legitimately contain (or be)
// whitespace. Deltas serialized by this package add no indentation, so
// nothing spurious appears.
func parseOptions() dom.ParseOptions {
	return dom.ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true}
}

// FromDoc decodes a delta document produced by ToDoc. It consumes doc:
// the subtrees of inserts and deletes are detached from it, not
// copied, since Parse, which built the tree, is about to drop it. A
// caller that wants its tree afterwards passes a Clone.
func FromDoc(doc *dom.Node) (*Delta, error) {
	root := doc.Root()
	if root == nil || root.Name != "delta" {
		return nil, fmt.Errorf("delta: document root is not <delta>")
	}
	d := &Delta{}
	if s, ok := root.Attribute("nextxid"); ok {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("delta: bad nextxid %q", s)
		}
		d.NextXID = v
	}
	for _, e := range root.Children {
		if e.Type != dom.Element {
			continue // tolerate stray whitespace between ops
		}
		op, err := elementToOp(e)
		if err != nil {
			return nil, err
		}
		d.Ops = append(d.Ops, op)
	}
	if err := Validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

func elementToOp(e *dom.Node) (Op, error) {
	switch e.Name {
	case "insert":
		x, m, parent, pos, sub, err := subtreeOpFields(e)
		if err != nil {
			return nil, err
		}
		return Insert{XID: x, XIDMap: m, Parent: parent, Pos: pos, Subtree: sub}, nil
	case "delete":
		x, m, parent, pos, sub, err := subtreeOpFields(e)
		if err != nil {
			return nil, err
		}
		return Delete{XID: x, XIDMap: m, Parent: parent, Pos: pos, Subtree: sub}, nil
	case "update":
		x, err := intAttr(e, "xid")
		if err != nil {
			return nil, err
		}
		var oldV, newV string
		var haveOld, haveNew bool
		for _, c := range e.Children {
			switch {
			case c.Type == dom.Element && c.Name == "old":
				oldV, haveOld = c.TextContent(), true
			case c.Type == dom.Element && c.Name == "new":
				newV, haveNew = c.TextContent(), true
			}
		}
		if !haveOld || !haveNew {
			return nil, fmt.Errorf("delta: update %d: missing <old> or <new>", x)
		}
		return Update{XID: x, Old: oldV, New: newV}, nil
	case "move":
		x, err := intAttr(e, "xid")
		if err != nil {
			return nil, err
		}
		fp, err := intAttr(e, "from-parent")
		if err != nil {
			return nil, err
		}
		fpos, err := posAttr(e, "from-pos")
		if err != nil {
			return nil, err
		}
		tp, err := intAttr(e, "to-parent")
		if err != nil {
			return nil, err
		}
		tpos, err := posAttr(e, "to-pos")
		if err != nil {
			return nil, err
		}
		return Move{XID: x, FromParent: fp, FromPos: fpos, ToParent: tp, ToPos: tpos}, nil
	case "insert-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return nil, err
		}
		name, value := attrOrEmpty(e, "name"), attrOrEmpty(e, "value")
		if name == "" {
			return nil, fmt.Errorf("delta: insert-attribute %d: missing name", x)
		}
		return InsertAttr{XID: x, Name: name, Value: value}, nil
	case "delete-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return nil, err
		}
		name := attrOrEmpty(e, "name")
		if name == "" {
			return nil, fmt.Errorf("delta: delete-attribute %d: missing name", x)
		}
		return DeleteAttr{XID: x, Name: name, Old: attrOrEmpty(e, "old")}, nil
	case "update-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return nil, err
		}
		name := attrOrEmpty(e, "name")
		if name == "" {
			return nil, fmt.Errorf("delta: update-attribute %d: missing name", x)
		}
		return UpdateAttr{XID: x, Name: name, Old: attrOrEmpty(e, "old"), New: attrOrEmpty(e, "new")}, nil
	default:
		return nil, fmt.Errorf("delta: unknown operation element <%s>", e.Name)
	}
}

func subtreeOpFields(e *dom.Node) (x int64, m xid.Map, parent int64, pos int, sub *dom.Node, err error) {
	if x, err = intAttr(e, "xid"); err != nil {
		return
	}
	ms, ok := e.Attribute("xidmap")
	if !ok {
		err = fmt.Errorf("delta: <%s> %d: missing xidmap", e.Name, x)
		return
	}
	if m, err = xid.ParseMap(ms); err != nil {
		return
	}
	if parent, err = intAttr(e, "parent"); err != nil {
		return
	}
	if pos, err = posAttr(e, "pos"); err != nil {
		return
	}
	if len(e.Children) != 1 {
		err = fmt.Errorf("delta: <%s> %d: expected exactly one content node, got %d", e.Name, x, len(e.Children))
		return
	}
	sub = e.RemoveAt(0)
	if applyErr := m.ApplyTo(sub); applyErr != nil {
		err = fmt.Errorf("delta: <%s> %d: %w", e.Name, x, applyErr)
		return
	}
	return
}

func intAttr(e *dom.Node, name string) (int64, error) {
	s, ok := e.Attribute(name)
	if !ok {
		return 0, fmt.Errorf("delta: <%s>: missing attribute %s", e.Name, name)
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("delta: <%s>: bad attribute %s=%q", e.Name, name, s)
	}
	return v, nil
}

// posAttr reads a 1-based serialized position into the 0-based
// in-memory form.
func posAttr(e *dom.Node, name string) (int, error) {
	v, err := intAttr(e, name)
	if err != nil {
		return 0, err
	}
	if v < 1 {
		return 0, fmt.Errorf("delta: <%s>: position %s=%d must be >= 1", e.Name, name, v)
	}
	return int(v - 1), nil
}

func attrOrEmpty(e *dom.Node, name string) string {
	v, _ := e.Attribute(name)
	return v
}

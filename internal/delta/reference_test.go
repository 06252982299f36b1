package delta

import (
	"fmt"
	"strconv"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// fromDocReference is the decoder ParseBytes replaced, verbatim but for
// its name: dom.ParseBytes builds the whole delta document and this
// walks it. FuzzDeltaDecodeDifferential holds the two to the same
// verdicts and the same deltas.
//
// fromDocReference decodes a delta document produced by ToDoc. It consumes doc:
// the subtrees of inserts and deletes are detached from it, not
// copied, since Parse, which built the tree, is about to drop it. A
// caller that wants its tree afterwards passes a Clone.
func fromDocReference(doc *dom.Node) (*Delta, error) {
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
	if err := validate(d); err != nil {
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

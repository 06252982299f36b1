package delta

import (
	"fmt"
	"math"
	"strconv"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// fromDocReference is the decoder ParseBytes replaced, verbatim but for
// its name and the one op struct, whose subtrees carry the xidmap's
// XIDs in place of the map: dom.ParseBytes builds the whole delta
// document and this walks it. FuzzDeltaDecodeDifferential holds the two to the same
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
	return d, nil
}

func elementToOp(e *dom.Node) (Op, error) {
	switch e.Name {
	case "insert":
		return subtreeOp(KindInsert, e)
	case "delete":
		return subtreeOp(KindDelete, e)
	case "update":
		x, err := intAttr(e, "xid")
		if err != nil {
			return Op{}, err
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
			return Op{}, fmt.Errorf("delta: update %d: missing <old> or <new>", x)
		}
		return Op{Kind: KindUpdate, XID: x, Old: oldV, New: newV}, nil
	case "move":
		x, err := intAttr(e, "xid")
		if err != nil {
			return Op{}, err
		}
		fp, err := intAttr(e, "from-parent")
		if err != nil {
			return Op{}, err
		}
		fpos, err := posAttr(e, "from-pos")
		if err != nil {
			return Op{}, err
		}
		tp, err := intAttr(e, "to-parent")
		if err != nil {
			return Op{}, err
		}
		tpos, err := posAttr(e, "to-pos")
		if err != nil {
			return Op{}, err
		}
		return Op{Kind: KindMove, XID: x, Parent: fp, Pos: fpos, ToParent: tp, ToPos: tpos}, nil
	case "insert-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return Op{}, err
		}
		name, value := attrOrEmpty(e, "name"), attrOrEmpty(e, "value")
		if name == "" {
			return Op{}, fmt.Errorf("delta: insert-attribute %d: missing name", x)
		}
		return Op{Kind: KindInsertAttr, XID: x, Name: name, New: value}, nil
	case "delete-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return Op{}, err
		}
		name := attrOrEmpty(e, "name")
		if name == "" {
			return Op{}, fmt.Errorf("delta: delete-attribute %d: missing name", x)
		}
		return Op{Kind: KindDeleteAttr, XID: x, Name: name, Old: attrOrEmpty(e, "old")}, nil
	case "update-attribute":
		x, err := intAttr(e, "xid")
		if err != nil {
			return Op{}, err
		}
		name := attrOrEmpty(e, "name")
		if name == "" {
			return Op{}, fmt.Errorf("delta: update-attribute %d: missing name", x)
		}
		return Op{Kind: KindUpdateAttr, XID: x, Name: name, Old: attrOrEmpty(e, "old"), New: attrOrEmpty(e, "new")}, nil
	default:
		return Op{}, fmt.Errorf("delta: unknown operation element <%s>", e.Name)
	}
}

// subtreeOp reads an insert or a delete, its subtree stamped with its
// xidmap, which must end at the op's XID.
func subtreeOp(kind Kind, e *dom.Node) (Op, error) {
	o := Op{Kind: kind}
	var err error
	if o.XID, err = intAttr(e, "xid"); err != nil {
		return o, err
	}
	ms, ok := e.Attribute("xidmap")
	if !ok {
		return o, fmt.Errorf("delta: <%s> %d: missing xidmap", e.Name, o.XID)
	}
	m, err := xid.ParseMap(ms)
	if err != nil {
		return o, err
	}
	if o.Parent, err = intAttr(e, "parent"); err != nil {
		return o, err
	}
	if o.Pos, err = posAttr(e, "pos"); err != nil {
		return o, err
	}
	if len(e.Children) != 1 {
		return o, fmt.Errorf("delta: <%s> %d: expected exactly one content node, got %d", e.Name, o.XID, len(e.Children))
	}
	o.Subtree = e.RemoveAt(0)
	if err := m.ApplyTo(o.Subtree); err != nil {
		return o, fmt.Errorf("delta: <%s> %d: %w", e.Name, o.XID, err)
	}
	if m.Root() != o.XID {
		return o, fmt.Errorf("delta: %s: xid %d: xid-map root is %d", kind, o.XID, m.Root())
	}
	return o, nil
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
func posAttr(e *dom.Node, name string) (int32, error) {
	v, err := intAttr(e, name)
	if err != nil {
		return 0, err
	}
	if v < 1 || v > math.MaxInt32 {
		return 0, fmt.Errorf("delta: <%s>: position %s=%d must be in [1, %d]", e.Name, name, v, math.MaxInt32)
	}
	return int32(v - 1), nil
}

func attrOrEmpty(e *dom.Node, name string) string {
	v, _ := e.Attribute(name)
	return v
}

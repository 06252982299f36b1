package delta

import (
	"bytes"
	"fmt"
	"io"
	"strconv"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// Parse reads a delta from its XML serialization.
func Parse(r io.Reader) (*Delta, error) {
	var buf bytes.Buffer
	if sized, ok := r.(interface{ Len() int }); ok {
		buf.Grow(sized.Len() + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("dom: %w", err)
	}
	return ParseBytes(buf.Bytes())
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

// ParseBytes reads a delta from a serialization the caller already
// holds — a stored record, a response body. src is not retained: every
// name and value of the delta is a copy.
//
// The delta document is never built. Operation tags, their attributes
// and the text of <old> and <new> are read as tokens of dom's
// tokenizer; only the content of inserts and deletes becomes Nodes, by
// the builder dom.ParseBytes uses, each node given its XID from the
// op's xidmap as it completes. What is accepted and what comes out are
// what parsing the whole document and walking it gave: the document
// must be well-formed XML to its last byte, its root element <delta>;
// character data, comments and processing instructions between ops are
// ignored, as is anything inside an op that is not its content.
func ParseBytes(src []byte) (*Delta, error) {
	x := &decoder{dec: dom.NewDecoder(src, parseOptions())}
	root, err := x.dec.Next()
	for err == nil && root.Kind != dom.TokenStart {
		root, err = x.dec.Next()
	}
	if err != nil {
		return nil, err
	}
	if string(root.Name) != "delta" {
		return nil, fmt.Errorf("delta: document root is not <delta>")
	}
	d := &Delta{}
	if s, ok := attrValue(root, "nextxid"); ok {
		v, err := parseInt(s)
		if err != nil {
			return nil, fmt.Errorf("delta: bad nextxid %q", s)
		}
		d.NextXID = v
	}
	for {
		tok, err := x.dec.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == dom.TokenEnd {
			break // </delta>
		}
		if tok.Kind != dom.TokenStart {
			continue // tolerate stray text between ops
		}
		op, err := x.op(tok)
		if err != nil {
			return nil, err
		}
		d.Ops = append(d.Ops, op)
	}
	// What follows the root must be well-formed too.
	for {
		if _, err := x.dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
	}
	if err := validate(d); err != nil {
		return nil, err
	}
	return d, nil
}

// decoder is the state of one ParseBytes.
type decoder struct {
	dec *dom.Decoder
	// stamper gives the nodes of the content being built their XIDs.
	stamper xid.Stamper
	// spans holds the ranges of every xidmap of the delta.
	spans xid.Spans
	// text gathers the character data of an <old> or <new>.
	text []byte
}

// op decodes the operation whose start tag is start, reading up to and
// including its end tag.
func (x *decoder) op(start *dom.Token) (Op, error) {
	var op Op
	var err error
	switch string(start.Name) {
	case "insert":
		return x.subtreeOp("insert", start)
	case "delete":
		o, err := x.subtreeOp("delete", start)
		return Delete(o), err
	case "update":
		return x.update(start)
	case "move":
		op, err = move(start)
	case "insert-attribute":
		var o InsertAttr
		o.XID, o.Name, err = attrOp(start)
		o.Value = stringValue(start, "value")
		op = o
	case "delete-attribute":
		var o DeleteAttr
		o.XID, o.Name, err = attrOp(start)
		o.Old = stringValue(start, "old")
		op = o
	case "update-attribute":
		var o UpdateAttr
		o.XID, o.Name, err = attrOp(start)
		o.Old, o.New = stringValue(start, "old"), stringValue(start, "new")
		op = o
	default:
		return nil, fmt.Errorf("delta: unknown operation element <%s>", start.Name)
	}
	if err != nil {
		return nil, err
	}
	return op, x.skip() // these are read from attributes; what they hold is ignored
}

// subtreeOp decodes an insert or a delete (name) as an Insert: its
// attributes, then its content, which must be exactly one node and is
// built with the xidmap's XIDs on it.
func (x *decoder) subtreeOp(name string, start *dom.Token) (Insert, error) {
	var o Insert
	var err error
	if o.XID, err = intValue(start, "xid"); err != nil {
		return o, err
	}
	ms, ok := attrValue(start, "xidmap")
	if !ok {
		return o, fmt.Errorf("delta: <%s> %d: missing xidmap", name, o.XID)
	}
	if o.XIDMap, err = x.spans.ParseMap(ms); err != nil {
		return o, err
	}
	if o.Parent, err = intValue(start, "parent"); err != nil {
		return o, err
	}
	if o.Pos, err = posValue(start, "pos"); err != nil {
		return o, err
	}
	x.stamper = o.XIDMap.Stamper()
	kids, err := x.dec.Content(nil, x.stamper.Stamp)
	if err != nil {
		return o, err
	}
	if len(kids) != 1 {
		return o, fmt.Errorf("delta: <%s> %d: expected exactly one content node, got %d", name, o.XID, len(kids))
	}
	o.Subtree = kids[0]
	if err := x.stamper.Done(o.Subtree); err != nil {
		return o, fmt.Errorf("delta: <%s> %d: %w", name, o.XID, err)
	}
	return o, nil
}

// update decodes an update: the text of its last <old> and its last
// <new> child, all of it, at any depth.
func (x *decoder) update(start *dom.Token) (Op, error) {
	id, err := intValue(start, "xid")
	if err != nil {
		return nil, err
	}
	var o Update
	var haveOld, haveNew bool
	for {
		tok, err := x.dec.Next()
		if err != nil {
			return nil, err
		}
		if tok.Kind == dom.TokenEnd {
			break // </update>
		}
		if tok.Kind != dom.TokenStart {
			continue
		}
		switch string(tok.Name) {
		case "old":
			o.Old, err = x.textContent()
			haveOld = true
		case "new":
			o.New, err = x.textContent()
			haveNew = true
		default:
			err = x.skip()
		}
		if err != nil {
			return nil, err
		}
	}
	if !haveOld || !haveNew {
		return nil, fmt.Errorf("delta: update %d: missing <old> or <new>", id)
	}
	o.XID = id
	return o, nil
}

// textContent reads the rest of the element whose start tag was just
// read and returns its character data, nested elements' included.
func (x *decoder) textContent() (string, error) {
	x.text = x.text[:0]
	for depth := 1; ; {
		tok, err := x.dec.Next()
		if err != nil {
			return "", err
		}
		switch tok.Kind {
		case dom.TokenStart:
			depth++
		case dom.TokenEnd:
			if depth--; depth == 0 {
				return string(x.text), nil
			}
		case dom.TokenText:
			x.text = append(x.text, tok.Data...)
		}
	}
}

// skip reads the rest of the element whose start tag was just read.
func (x *decoder) skip() error {
	for depth := 1; depth > 0; {
		tok, err := x.dec.Next()
		if err != nil {
			return err
		}
		switch tok.Kind {
		case dom.TokenStart:
			depth++
		case dom.TokenEnd:
			depth--
		}
	}
	return nil
}

func move(start *dom.Token) (Op, error) {
	var o Move
	var err error
	if o.XID, err = intValue(start, "xid"); err != nil {
		return nil, err
	}
	if o.FromParent, err = intValue(start, "from-parent"); err != nil {
		return nil, err
	}
	if o.FromPos, err = posValue(start, "from-pos"); err != nil {
		return nil, err
	}
	if o.ToParent, err = intValue(start, "to-parent"); err != nil {
		return nil, err
	}
	if o.ToPos, err = posValue(start, "to-pos"); err != nil {
		return nil, err
	}
	return o, nil
}

// attrOp reads what the three attribute operations share: the owner's
// XID and a non-empty attribute name.
func attrOp(start *dom.Token) (int64, string, error) {
	id, err := intValue(start, "xid")
	if err != nil {
		return 0, "", err
	}
	name := stringValue(start, "name")
	if name == "" {
		return 0, "", fmt.Errorf("delta: %s %d: missing name", start.Name, id)
	}
	return id, name, nil
}

// attrValue returns the value of the first attribute called name.
func attrValue(t *dom.Token, name string) ([]byte, bool) {
	for _, a := range t.Attrs {
		if string(a.Name) == name {
			return a.Value, true
		}
	}
	return nil, false
}

// stringValue is attrValue as a string of its own, "" when absent.
func stringValue(t *dom.Token, name string) string {
	v, _ := attrValue(t, name)
	return string(v)
}

func intValue(t *dom.Token, name string) (int64, error) {
	s, ok := attrValue(t, name)
	if !ok {
		return 0, fmt.Errorf("delta: <%s>: missing attribute %s", t.Name, name)
	}
	v, err := parseInt(s)
	if err != nil {
		return 0, fmt.Errorf("delta: <%s>: bad attribute %s=%q", t.Name, name, s)
	}
	return v, nil
}

// parseInt is strconv.ParseInt(string(b), 10, 64), its loop written
// out for the plain digits the encoder writes.
func parseInt(b []byte) (int64, error) {
	if len(b) == 0 || len(b) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

// posValue reads a 1-based serialized position into the 0-based
// in-memory form.
func posValue(t *dom.Token, name string) (int, error) {
	v, err := intValue(t, name)
	if err != nil {
		return 0, err
	}
	if v < 1 {
		return 0, fmt.Errorf("delta: <%s>: position %s=%d must be >= 1", t.Name, name, v)
	}
	return int(v - 1), nil
}

package dom

import (
	"io"
	"strconv"
	"strings"
	"sync"
)

// WriteTo serializes the subtree rooted at n as XML to w. The output is
// canonical in the sense that attributes are emitted sorted by name and
// no insignificant whitespace is added, so two Equal trees serialize to
// identical bytes.
func (n *Node) WriteTo(w io.Writer) (int64, error) {
	return EncodeTo(w, func(e *Encoder) { e.Node(n) })
}

// String serializes the subtree rooted at n as XML.
func (n *Node) String() string {
	var b strings.Builder
	_, _ = n.WriteTo(&b) // a Builder cannot fail
	return b.String()
}

// AppendXML appends what WriteTo writes for the subtree rooted at n to
// b and returns the extended slice, growing it as append does.
func (n *Node) AppendXML(b []byte) []byte {
	return AppendEncode(b, func(e *Encoder) { e.Node(n) })
}

// EncodedLen returns how many bytes WriteTo writes for the subtree
// rooted at n, counted by the same walk with nothing copied.
func (n *Node) EncodedLen() int64 {
	var cw countWriter // no writer: count only
	writeNode(&cw, n)
	return cw.n
}

// Encoder writes canonical XML piece by piece — the primitives WriteTo
// is built from — for a caller that serializes a document it never
// holds as a tree (package delta encodes its operations this way).
// EncodeTo hands out one that writes and AppendEncode one that appends;
// the zero Encoder writes nowhere and only counts the bytes it would
// write. Write errors are sticky and reported by Flush.
type Encoder struct{ cw countWriter }

// EncodeTo calls enc with an Encoder that writes to w through a pooled
// buffer of flushSize bytes, flushes it, and returns the bytes written
// and the first error met. The buffer goes back to the pool when
// EncodeTo returns: w must not keep the slices it is handed, as the
// io.Writer contract already says.
func EncodeTo(w io.Writer, enc func(*Encoder)) (int64, error) {
	bp := flushPool.Get().(*[]byte)
	defer flushPool.Put(bp)
	e := Encoder{cw: countWriter{w: w, buf: (*bp)[:0]}}
	enc(&e)
	return e.Flush()
}

// AppendEncode calls enc with an Encoder that appends to b, growing it
// as append does, and returns the extended slice: EncodeTo for a caller
// that wants the bytes in a buffer of its own, such as one that already
// holds what goes before them.
func AppendEncode(b []byte, enc func(*Encoder)) []byte {
	e := Encoder{cw: countWriter{buf: b, grow: true}}
	enc(&e)
	return e.cw.buf
}

// StartTag writes the opening "<name" of a start tag. Attr, AttrInt
// and AttrRaw add its attributes in the order they are called — the
// caller calls them sorted by name, the order WriteTo gives — and
// EndTag closes it.
func (e *Encoder) StartTag(name string) {
	e.cw.writeString("<")
	e.cw.writeString(name)
}

// Attr writes one attribute of the open start tag, its value escaped.
func (e *Encoder) Attr(name, value string) { e.cw.attr(name, value) }

// AttrInt writes one attribute of the open start tag whose value is v
// in decimal, with nothing allocated.
func (e *Encoder) AttrInt(name string, v int64) {
	var digits [20]byte
	e.AttrRaw(name, strconv.AppendInt(digits[:0], v, 10))
}

// AttrRaw writes one attribute of the open start tag whose value is
// written as it is, unescaped: the caller passes a value with no
// character an attribute value reserves, such as a number or an XID
// map. The value is not kept.
func (e *Encoder) AttrRaw(name string, value []byte) {
	e.cw.attrName(name)
	e.cw.writeBytes(value)
	e.cw.writeString(`"`)
}

// EndTag closes the open start tag, as an empty element's when empty
// is set.
func (e *Encoder) EndTag(empty bool) {
	if empty {
		e.cw.writeString("/>")
		return
	}
	e.cw.writeString(">")
}

// EndElement writes an end tag.
func (e *Encoder) EndElement(name string) { writeEnd(&e.cw, name) }

// Text writes escaped character data.
func (e *Encoder) Text(s string) { e.cw.writeEscaped(s, &textRef) }

// Node writes the subtree rooted at n.
func (e *Encoder) Node(n *Node) { writeNode(&e.cw, n) }

// Flush writes out anything buffered and returns the bytes written so
// far and the first error met.
func (e *Encoder) Flush() (int64, error) {
	e.cw.flush()
	return e.cw.n, e.cw.err
}

// flushSize is how much output an Encoder gathers per Write: a ~230 KB
// delta reaches an http.ResponseWriter in eight writes, not 58. The
// buffers are pooled, not allocated per write: a range reply of 4 to
// 32 KB would otherwise allocate all 32 KiB for itself.
const flushSize = 32 << 10

// flushPool holds EncodeTo's buffers, *[]byte of capacity flushSize.
var flushPool = sync.Pool{New: func() any {
	b := make([]byte, 0, flushSize)
	return &b
}}

// countWriter gathers output in buf and hands it to w one full buffer
// at a time, counting what w accepted. Without a w it only counts, or,
// with grow set, appends everything to buf.
type countWriter struct {
	w    io.Writer
	buf  []byte
	n    int64
	err  error
	grow bool
}

func (cw *countWriter) writeString(s string) {
	if cw.w == nil {
		if cw.grow {
			cw.buf = append(cw.buf, s...)
		}
		cw.n += int64(len(s))
		return
	}
	for len(s) > cap(cw.buf)-len(cw.buf) {
		n := copy(cw.buf[len(cw.buf):cap(cw.buf)], s)
		cw.buf = cw.buf[:len(cw.buf)+n]
		cw.flush()
		s = s[n:]
	}
	cw.buf = append(cw.buf, s...)
}

// writeBytes is writeString for bytes, which it does not keep.
func (cw *countWriter) writeBytes(b []byte) {
	if cw.w == nil {
		if cw.grow {
			cw.buf = append(cw.buf, b...)
		}
		cw.n += int64(len(b))
		return
	}
	for len(b) > cap(cw.buf)-len(cw.buf) {
		n := copy(cw.buf[len(cw.buf):cap(cw.buf)], b)
		cw.buf = cw.buf[:len(cw.buf)+n]
		cw.flush()
		b = b[n:]
	}
	cw.buf = append(cw.buf, b...)
}

func (cw *countWriter) flush() {
	if cw.err == nil && len(cw.buf) > 0 {
		n, err := cw.w.Write(cw.buf)
		cw.n += int64(n)
		cw.err = err
	}
	cw.buf = cw.buf[:0]
}

// attr writes one attribute, ` name="value"`, its value escaped.
func (cw *countWriter) attr(name, value string) {
	cw.attrName(name)
	cw.writeEscaped(value, &attrRef)
	cw.writeString(`"`)
}

// attrName writes ` name="`, the start of one attribute.
func (cw *countWriter) attrName(name string) {
	cw.writeString(" ")
	cw.writeString(name)
	cw.writeString(`="`)
}

// The escape tables: ref[c] is nonzero for a byte written as a
// reference, and indexes refs. In character data (textRef) those are
// the characters XML reserves there, and with them the one a parser
// would not give back as written: it reads a literal carriage return
// as a line feed everywhere. In a double-quoted attribute value
// (attrRef) the quote is reserved too, and tabs and line feeds are
// kept out of reach of attribute-value normalisation.
var (
	textRef, attrRef [256]uint8
	refs             = [...]string{"", "&amp;", "&lt;", "&gt;", "&#13;", "&quot;", "&#10;", "&#9;"}
)

func init() {
	for i, c := range []byte{'&', '<', '>', '\r', '"', '\n', '\t'} {
		if c != '"' && c != '\n' && c != '\t' {
			textRef[c] = uint8(i + 1)
		}
		attrRef[c] = uint8(i + 1)
	}
}

// writeEscaped writes s with every byte ref marks replaced by its
// reference. Unescaped runs are written as they are, so nothing is
// allocated.
func (cw *countWriter) writeEscaped(s string, ref *[256]uint8) {
	last := 0
	for i := 0; i < len(s); i++ {
		r := ref[s[i]]
		if r == 0 {
			continue
		}
		cw.writeString(s[last:i])
		cw.writeString(refs[r])
		last = i + 1
	}
	cw.writeString(s[last:])
}

func writeStart(cw *countWriter, name string, attrs []Attr, empty bool) {
	cw.writeString("<")
	cw.writeString(name)
	for _, a := range attrs {
		cw.attr(a.Name, a.Value)
	}
	if empty {
		cw.writeString("/>")
		return
	}
	cw.writeString(">")
}

func writeEnd(cw *countWriter, name string) {
	cw.writeString("</")
	cw.writeString(name)
	cw.writeString(">")
}

func writeNode(cw *countWriter, n *Node) {
	switch n.Type {
	case Document:
		for _, c := range n.Children {
			writeNode(cw, c)
		}
	case Element:
		writeStart(cw, n.Name, n.SortedAttrs(), len(n.Children) == 0)
		if len(n.Children) == 0 {
			return
		}
		for _, c := range n.Children {
			writeNode(cw, c)
		}
		writeEnd(cw, n.Name)
	case Text:
		cw.writeEscaped(n.Value, &textRef)
	case Comment:
		cw.writeString("<!--")
		cw.writeString(n.Value)
		cw.writeString("-->")
	case ProcInst:
		cw.writeString("<?")
		cw.writeString(n.Name)
		if n.Value != "" {
			cw.writeString(" ")
			cw.writeString(n.Value)
		}
		cw.writeString("?>")
	}
}

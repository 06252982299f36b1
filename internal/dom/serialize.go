package dom

import (
	"io"
	"strings"
)

// WriteTo serializes the subtree rooted at n as XML to w. The output is
// canonical in the sense that attributes are emitted sorted by name and
// no insignificant whitespace is added, so two Equal trees serialize to
// identical bytes.
func (n *Node) WriteTo(w io.Writer) (int64, error) {
	e := NewEncoder(w)
	e.Node(n)
	return e.Flush()
}

// String serializes the subtree rooted at n as XML.
func (n *Node) String() string {
	var b strings.Builder
	e := NewEncoder(&b)
	e.Node(n)
	e.cw.flush() // a Builder cannot fail
	return b.String()
}

// AppendXML appends what WriteTo writes for the subtree rooted at n to
// b and returns the extended slice, growing it as append does.
func (n *Node) AppendXML(b []byte) []byte {
	cw := countWriter{buf: b, grow: true}
	writeNode(&cw, n)
	return cw.buf
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
// Output is buffered; write errors are sticky and reported by Flush.
type Encoder struct{ cw countWriter }

// NewEncoder returns an encoder writing to w.
func NewEncoder(w io.Writer) *Encoder {
	return &Encoder{cw: countWriter{w: w, buf: make([]byte, 0, flushSize)}}
}

// StartElement writes a start tag, or a whole empty element when empty
// is set. The attributes are written in the order given: the caller
// passes them sorted by name, as WriteTo does.
func (e *Encoder) StartElement(name string, attrs []Attr, empty bool) {
	writeStart(&e.cw, name, attrs, empty)
}

// EndElement writes an end tag.
func (e *Encoder) EndElement(name string) { writeEnd(&e.cw, name) }

// Text writes escaped character data.
func (e *Encoder) Text(s string) { e.cw.writeEscaped(s, false) }

// Node writes the subtree rooted at n.
func (e *Encoder) Node(n *Node) { writeNode(&e.cw, n) }

// Flush writes out anything buffered and returns the bytes written so
// far and the first error met.
func (e *Encoder) Flush() (int64, error) {
	e.cw.flush()
	return e.cw.n, e.cw.err
}

// flushSize is how much output a countWriter gathers per Write.
const flushSize = 4096

// countWriter gathers output in buf, whose capacity is flushSize, and
// hands it to w one full buffer at a time, counting what w accepted.
// Without a w it only counts, or, with grow set, appends everything to
// buf.
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

func (cw *countWriter) flush() {
	if cw.err == nil && len(cw.buf) > 0 {
		n, err := cw.w.Write(cw.buf)
		cw.n += int64(n)
		cw.err = err
	}
	cw.buf = cw.buf[:0]
}

// writeEscaped writes character data (attr false) or a double-quoted
// attribute value (attr true) with the characters XML reserves there
// replaced by references, and with them the characters a parser would
// not give back as written: it reads a literal carriage return as a
// line feed everywhere, and tabs and line feeds inside a value are
// kept out of reach of attribute-value normalisation. Unescaped runs
// are written as they are, so nothing is allocated.
func (cw *countWriter) writeEscaped(s string, attr bool) {
	last := 0
	for i := 0; i < len(s); i++ {
		var esc string
		switch s[i] {
		case '&':
			esc = "&amp;"
		case '<':
			esc = "&lt;"
		case '>':
			esc = "&gt;"
		case '"':
			if attr {
				esc = "&quot;"
			}
		case '\n':
			if attr {
				esc = "&#10;"
			}
		case '\t':
			if attr {
				esc = "&#9;"
			}
		case '\r':
			esc = "&#13;"
		}
		if esc == "" {
			continue
		}
		cw.writeString(s[last:i])
		cw.writeString(esc)
		last = i + 1
	}
	cw.writeString(s[last:])
}

func writeStart(cw *countWriter, name string, attrs []Attr, empty bool) {
	cw.writeString("<")
	cw.writeString(name)
	for _, a := range attrs {
		cw.writeString(" ")
		cw.writeString(a.Name)
		cw.writeString(`="`)
		cw.writeEscaped(a.Value, true)
		cw.writeString(`"`)
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
		cw.writeEscaped(n.Value, false)
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

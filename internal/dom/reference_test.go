package dom

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
)

// parseReference is the parser this package shipped before it had its
// own tokenizer: encoding/xml tokens turned into Nodes, with names
// re-lexicalised from the URIs encoding/xml resolves them to. It is
// kept, verbatim, as the oracle FuzzParseDifferential compares
// ParseBytes against; nothing outside the tests calls it.
func parseReference(r io.Reader, opts ParseOptions) (*Node, error) {
	var lr *limitReader
	if opts.Limits.maxBytes > 0 {
		lr = &limitReader{r: r, remain: opts.Limits.maxBytes, limit: opts.Limits.maxBytes}
		r = lr
	}
	dec := xml.NewDecoder(r)
	// The diff operates on documents as-is; entity expansion beyond the
	// predefined five is out of scope, but strictness stays on so that
	// malformed input is reported rather than silently truncated.
	doc := NewDocument()
	cur := doc
	var sawElement bool
	// Namespace handling is lexical: encoding/xml resolves prefixes to
	// URIs, but a URI is not a legal XML name, so serialized output
	// would not reparse. We track prefix declarations ourselves and
	// keep names in their prefix:local source form; the xmlns
	// attributes stay in the tree, so output round-trips.
	ns := nsStack{}
	depth := 0
	var tokens int64
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			if lr != nil && lr.exceeded {
				return nil, &LimitError{What: "bytes", limit: opts.Limits.maxBytes}
			}
			var le *LimitError
			if errors.As(err, &le) {
				return nil, le
			}
			return nil, fmt.Errorf("dom: %w", err)
		}
		tokens++
		if max := opts.Limits.MaxTokens; max > 0 && tokens > max {
			return nil, &LimitError{What: "tokens", limit: max}
		}
		switch t := tok.(type) {
		case xml.StartElement:
			depth++
			if max := opts.Limits.MaxDepth; max > 0 && depth > max {
				return nil, &LimitError{What: "depth", limit: int64(max)}
			}
			ns.push(t.Attr)
			el := NewElement(ns.elemName(t.Name))
			if len(t.Attr) > 0 {
				el.Attrs = make([]Attr, 0, len(t.Attr))
				for _, a := range t.Attr {
					el.Attrs = append(el.Attrs, Attr{Name: ns.attrName(a.Name), Value: a.Value})
				}
			}
			cur.Append(el)
			cur = el
			sawElement = true
		case xml.EndElement:
			depth--
			ns.pop()
			if cur == doc {
				return nil, fmt.Errorf("dom: unbalanced end element %s", t.Name.Local)
			}
			cur = cur.Parent
		case xml.CharData:
			s := string(t)
			if !opts.KeepWhitespace && strings.TrimSpace(s) == "" {
				continue
			}
			// Merge adjacent character data (CDATA boundaries etc.) so
			// the tree never holds two neighbouring text nodes; the
			// change simulator relies on this invariant.
			if k := len(cur.Children); k > 0 && cur.Children[k-1].Type == Text {
				cur.Children[k-1].Value += s
				continue
			}
			cur.Append(NewText(s))
		case xml.Comment:
			if opts.KeepComments {
				cur.Append(&Node{Type: Comment, Value: string(t)})
			}
		case xml.ProcInst:
			if opts.KeepProcInsts && t.Target != "xml" {
				cur.Append(&Node{Type: ProcInst, Name: t.Target, Value: string(t.Inst)})
			}
		case xml.Directive:
			// Retain the DOCTYPE text as the document node's value so that the
			// diff can hand it to package dtd for ID-attribute
			// discovery. Other directives are not part of the model.
			if d := string(t); strings.HasPrefix(d, "DOCTYPE") {
				doc.Value = d
			}
		}
	}
	if cur != doc {
		return nil, fmt.Errorf("dom: unexpected EOF inside element %s", cur.Name)
	}
	if !sawElement {
		return nil, fmt.Errorf("dom: document has no root element")
	}
	return doc, nil
}

// nsStack reconstructs the lexical prefix of namespaced names: one
// frame per open element, recording the prefixes and the default
// namespace that element declares.
type nsStack struct {
	frames []nsFrame
}

type nsFrame struct {
	prefixes map[string]string // namespace URI -> declared prefix
	def      string            // xmlns="uri" at this element
	hasDef   bool
}

func (s *nsStack) push(attrs []xml.Attr) {
	var frame nsFrame
	for _, a := range attrs {
		switch {
		case a.Name.Space == "xmlns": // xmlns:prefix="uri"
			if frame.prefixes == nil {
				frame.prefixes = make(map[string]string, 2)
			}
			frame.prefixes[a.Value] = a.Name.Local
		case a.Name.Space == "" && a.Name.Local == "xmlns": // xmlns="uri"
			frame.def, frame.hasDef = a.Value, true
		}
	}
	s.frames = append(s.frames, frame)
}

func (s *nsStack) pop() {
	if len(s.frames) > 0 {
		s.frames = s.frames[:len(s.frames)-1]
	}
}

// prefix returns the innermost prefix declared for the URI ("" when the
// URI is the default namespace or undeclared).
func (s *nsStack) prefix(uri string) string {
	for i := len(s.frames) - 1; i >= 0; i-- {
		if p, ok := s.frames[i].prefixes[uri]; ok {
			return p
		}
	}
	return ""
}

// defaultURI returns the in-scope default namespace ("" when none is
// declared).
func (s *nsStack) defaultURI() string {
	for i := len(s.frames) - 1; i >= 0; i-- {
		if s.frames[i].hasDef {
			return s.frames[i].def
		}
	}
	return ""
}

// elemName renders an element name in its lexical form: a declared
// prefix is restored, a name in the default namespace is the local
// name alone. A Space with no declaration in scope is encoding/xml's
// verbatim undeclared prefix; it must be kept, or the lexical form
// (and, for local parts an unprefixed name could not start, the
// name's validity) is lost.
func (s *nsStack) elemName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	if p := s.prefix(n.Space); p != "" {
		return p + ":" + n.Local
	}
	if n.Space == s.defaultURI() {
		return n.Local
	}
	return n.Space + ":" + n.Local
}

// attrName renders an attribute name. Go reports xmlns declarations
// with Space "xmlns" (prefixed) or Local "xmlns" (default); other
// attributes carry the resolved URI like elements do — except that
// attributes never inherit the default namespace, so an undeclared
// Space is always a verbatim prefix to keep.
func (s *nsStack) attrName(n xml.Name) string {
	switch {
	case n.Space == "":
		return n.Local
	case n.Space == "xmlns":
		return "xmlns:" + n.Local
	default:
		if p := s.prefix(n.Space); p != "" {
			return p + ":" + n.Local
		}
		return n.Space + ":" + n.Local
	}
}

// limitReader counts bytes handed to the XML decoder and cuts the
// stream off once MaxBytes is exceeded. The decoder may wrap or
// replace the reader's error, so the parser also checks the exceeded
// flag after any token error.
type limitReader struct {
	r        io.Reader
	remain   int64
	limit    int64
	exceeded bool
}

func (l *limitReader) Read(p []byte) (int, error) {
	if l.remain <= 0 {
		// Only exceeded if more input actually exists — an input that
		// fits the limit exactly still ends in a clean EOF probe here.
		var probe [1]byte
		n, err := l.r.Read(probe[:])
		if n == 0 {
			return 0, err
		}
		l.exceeded = true
		return 0, &LimitError{What: "bytes", limit: l.limit}
	}
	if int64(len(p)) > l.remain {
		p = p[:l.remain]
	}
	n, err := l.r.Read(p)
	l.remain -= int64(n)
	return n, err
}

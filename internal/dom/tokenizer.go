package dom

import (
	"bytes"
	"fmt"
	"unicode/utf8"
)

// parser is the state of one ParseBytes call: a cursor-free tokenizer
// (every method takes the index it starts at and returns the index it
// stopped at) that builds Nodes as it goes. It accepts exactly what
// strict encoding/xml accepts and normalises exactly as it does; the
// comments below name each rule where it is enforced, and
// FuzzParseDifferential holds the two to the same verdicts and trees.
type parser struct {
	src  []byte
	opts ParseOptions

	// names interns element and attribute names: a document has few
	// distinct ones, so each is allocated once per parse.
	names map[string]string
	// buf is the scratch the slow paths decode into: character data or
	// an attribute value that holds a reference, a '\r', a '>', a
	// control byte or a non-ASCII byte, and directive text.
	buf []byte
	// attrs collects the attributes of the start tag being read, so the
	// element's own slice is allocated once, at its final size.
	attrs []Attr
	// kids holds the children read so far of every open element, the
	// innermost element's last; marks[d] is where the children of the
	// open element at depth d begin (marks[0] is the document's). An
	// element's Children slice is cut from kids when its end tag is
	// read — one exact allocation however many children it has.
	kids  []*Node
	marks []int

	tokens int64
}

// Byte classes of the fast paths. textStop ends the plain scan of
// character data: '<' ends the run, the rest need decode's care
// ('>' only because "]]>" must be refused). attrStop does the same
// inside a quoted attribute value, where '>' is plain and either quote
// character may be the closing one.
var (
	textStop      [256]bool
	attrStop      [256]bool
	nameByte      [256]bool // may continue a name; bytes >= 0x80 are checked as runes later
	nameStartByte [256]bool
)

func init() {
	for c := 0; c < 256; c++ {
		special := c >= utf8.RuneSelf || c == '&' || c == '<' || c == '\r' ||
			(c < 0x20 && c != '\t' && c != '\n')
		textStop[c] = special || c == '>'
		attrStop[c] = special || c == '"' || c == '\''
		letter := 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z'
		nameStartByte[c] = letter || c == '_' || c == ':'
		nameByte[c] = nameStartByte[c] || '0' <= c && c <= '9' || c == '.' || c == '-' || c >= utf8.RuneSelf
	}
}

func (p *parser) errorf(pos int, format string, args ...any) error {
	line := 1 + bytes.Count(p.src[:pos], []byte{'\n'})
	return fmt.Errorf("dom: XML syntax error on line %d: %s", line, fmt.Sprintf(format, args...))
}

func (p *parser) errEOF() error { return p.errorf(len(p.src), "unexpected EOF") }

// token counts one token against Limits.MaxTokens, in the units the
// limit has always used: a start tag, an end tag (a self-closing
// element is both), a run of character data, a CDATA section, a
// comment, a processing instruction and a directive are one each,
// kept in the tree or not.
func (p *parser) token() error {
	p.tokens++
	if max := p.opts.Limits.MaxTokens; max > 0 && p.tokens > max {
		return &LimitError{What: "tokens", Limit: max}
	}
	return nil
}

func (p *parser) parse() (*Node, error) {
	src := p.src
	doc := NewDocument()
	cur := doc // the innermost open element
	p.marks = append(p.marks, 0)
	sawElement := false
	for i := 0; i < len(src); {
		var err error
		switch {
		case src[i] != '<':
			i, err = p.text(cur, i)
		case i+1 == len(src):
			err = p.errEOF()
		case src[i+1] == '/':
			if i, err = p.endTag(cur, i); err == nil {
				cur = p.closeElement(cur)
			}
		case src[i+1] == '?':
			i, err = p.procInst(cur, i)
		case src[i+1] == '!':
			i, err = p.bang(doc, cur, i)
		default:
			cur, i, err = p.startTag(cur, i)
			sawElement = true
		}
		if err != nil {
			return nil, err
		}
	}
	if cur != doc {
		return nil, p.errEOF()
	}
	if !sawElement {
		return nil, fmt.Errorf("dom: document has no root element")
	}
	p.closeElement(doc)
	return doc, nil
}

// closeElement gives n the children gathered for it and returns its
// parent, the element that is open again.
func (p *parser) closeElement(n *Node) *Node {
	start := p.marks[len(p.marks)-1]
	p.marks = p.marks[:len(p.marks)-1]
	if start < len(p.kids) {
		n.Children = append([]*Node(nil), p.kids[start:]...)
		p.kids = p.kids[:start]
	}
	return n.Parent
}

func (p *parser) skipSpace(i int) int {
	for ; i < len(p.src); i++ {
		switch p.src[i] {
		case ' ', '\n', '\t', '\r':
		default:
			return i
		}
	}
	return i
}

// name checks the name that starts at i and returns where it ends.
// what names the expectation for the error message. A qualified name
// (an element or attribute name, not a processing-instruction target)
// may hold at most one colon. The input ending inside a name is an
// error: every name is followed by something.
func (p *parser) name(i int, qualified bool, what string) (int, error) {
	src := p.src
	end := i
	for end < len(src) && nameByte[src[end]] {
		end++
	}
	switch {
	case end == len(src):
		return 0, p.errEOF()
	case end == i:
		return 0, p.errorf(i, "expected %s", what)
	case !isName(src[i:end]):
		return 0, p.errorf(i, "invalid XML name: %s", src[i:end])
	case qualified && bytes.Count(src[i:end], []byte{':'}) > 1:
		return 0, p.errorf(i, "expected %s", what)
	}
	return end, nil
}

func (p *parser) intern(name []byte) string {
	if s, ok := p.names[string(name)]; ok {
		return s
	}
	s := string(name)
	p.names[s] = s
	return s
}

// startTag reads the start tag at i, adds the element to cur and
// returns the element that is innermost now — the new one, or cur
// again when the tag was self-closing — and the index after the tag.
// Attributes need no space between them and may repeat, as
// encoding/xml allows.
func (p *parser) startTag(cur *Node, i int) (*Node, int, error) {
	src := p.src
	end, err := p.name(i+1, true, "element name after <")
	if err != nil {
		return nil, 0, err
	}
	name := p.intern(src[i+1 : end])
	attrs := p.attrs[:0]
	empty := false
	for i = end; ; {
		if i = p.skipSpace(i); i == len(src) {
			return nil, 0, p.errEOF()
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' {
			if i+1 == len(src) {
				return nil, 0, p.errEOF()
			}
			if src[i+1] != '>' {
				return nil, 0, p.errorf(i, "expected /> in element")
			}
			empty = true
			i += 2
			break
		}
		if end, err = p.name(i, true, "attribute name in element"); err != nil {
			return nil, 0, err
		}
		attr := Attr{Name: p.intern(src[i:end])}
		if i = p.skipSpace(end); i == len(src) {
			return nil, 0, p.errEOF()
		}
		if src[i] != '=' {
			return nil, 0, p.errorf(i, "attribute name without = in element")
		}
		if i = p.skipSpace(i + 1); i == len(src) {
			return nil, 0, p.errEOF()
		}
		quote, other := src[i], byte('\'')
		switch quote {
		case '"':
		case '\'':
			other = '"'
		default:
			return nil, 0, p.errorf(i, "unquoted or missing attribute value in element")
		}
		// Plain scan to the closing quote; anything that needs
		// rewriting or checking sends the whole value through decode.
		i++
		for end = i; end < len(src) && (!attrStop[src[end]] || src[end] == other); {
			end++
		}
		if end < len(src) && src[end] == quote {
			attr.Value = string(src[i:end])
			i = end + 1
		} else {
			var data []byte
			if data, i, err = p.decode(i, int(quote), false); err != nil {
				return nil, 0, err
			}
			attr.Value = string(data)
		}
		attrs = append(attrs, attr)
	}
	p.attrs = attrs
	if err := p.token(); err != nil {
		return nil, 0, err
	}
	// The new element's depth is len(marks): the document's is 0.
	if max := p.opts.Limits.MaxDepth; max > 0 && len(p.marks) > max {
		return nil, 0, &LimitError{What: "depth", Limit: int64(max)}
	}
	el := &Node{Type: Element, Name: name, Parent: cur}
	if len(attrs) > 0 {
		el.Attrs = append([]Attr(nil), attrs...)
	}
	p.kids = append(p.kids, el)
	if empty {
		return cur, i, p.token()
	}
	p.marks = append(p.marks, len(p.kids))
	return el, i, nil
}

// endTag reads the end tag at i, which must close cur, and returns the
// index after it. Tags match by their spelling, prefix included.
func (p *parser) endTag(cur *Node, i int) (int, error) {
	src := p.src
	end, err := p.name(i+2, true, "element name after </")
	if err != nil {
		return 0, err
	}
	name := src[i+2 : end]
	if end = p.skipSpace(end); end == len(src) {
		return 0, p.errEOF()
	}
	switch {
	case src[end] != '>':
		return 0, p.errorf(end, "invalid characters between </%s and >", name)
	case cur.Type == Document:
		return 0, p.errorf(i, "unexpected end element </%s>", name)
	case string(name) != cur.Name:
		return 0, p.errorf(i, "element <%s> closed by </%s>", cur.Name, name)
	}
	return end + 1, p.token()
}

// text reads the run of character data that starts at i and ends at
// the next '<' or at the end of the input, and appends it to cur. The
// whitespace-only test is made per run, before CDATA sections and
// neighbouring runs are merged into one text node.
func (p *parser) text(cur *Node, i int) (int, error) {
	src := p.src
	if !p.opts.KeepWhitespace {
		// Indentation between tags, the common case: dropped unseen.
		if end := p.skipSpace(i); end == len(src) || src[end] == '<' {
			return end, p.token()
		}
	}
	end := i
	for end < len(src) && !textStop[src[end]] {
		end++
	}
	if end == len(src) || src[end] == '<' {
		if err := p.token(); err != nil {
			return 0, err
		}
		p.appendText(cur, string(src[i:end]))
		return end, nil
	}
	return p.charData(cur, i, false)
}

// charData is the slow path of text, and the only path of a CDATA
// section (whose content starts at i).
func (p *parser) charData(cur *Node, i int, cdata bool) (int, error) {
	data, end, err := p.decode(i, -1, cdata)
	if err != nil {
		return 0, err
	}
	if err := p.token(); err != nil {
		return 0, err
	}
	// Unicode white space, as strings.TrimSpace sees it: &#160; alone
	// is a whitespace-only run.
	if p.opts.KeepWhitespace || len(bytes.TrimSpace(data)) > 0 {
		p.appendText(cur, string(data))
	}
	return end, nil
}

// appendText adds character data to cur, extending a text node that
// is already its last child: the tree never holds two neighbouring
// text nodes.
func (p *parser) appendText(cur *Node, s string) {
	if k := len(p.kids); k > p.marks[len(p.marks)-1] && p.kids[k-1].Type == Text {
		p.kids[k-1].Value += s
		return
	}
	p.kids = append(p.kids, &Node{Type: Text, Value: s, Parent: cur})
}

// decode reads character data (quote < 0), a CDATA section's content
// (cdata) or an attribute value whose closing quote is quote, starting
// at i, into p.buf, and returns the decoded bytes — valid until the
// next call — and the index after the run: at the '<' or the end of
// input that ends character data, after the "]]>" that ends a CDATA
// section, after the closing quote. It expands references, rewrites
// "\r\n" and "\r" to "\n", refuses "]]>" outside CDATA and '<' inside
// a value, and checks the result for invalid UTF-8 and for characters
// outside the XML Char range.
func (p *parser) decode(i, quote int, cdata bool) ([]byte, int, error) {
	src := p.src
	buf := p.buf[:0]
	// The last two input bytes, for "]]>" and "\r\n". A reference
	// resets them: "]]&gt;" and "]&#93;>" are legal.
	var b0, b1 byte
	for ; ; i++ {
		if i == len(src) {
			if cdata {
				return nil, 0, p.errorf(i, "unexpected EOF in CDATA section")
			}
			if quote >= 0 {
				return nil, 0, p.errEOF()
			}
			break
		}
		b := src[i]
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if !cdata {
				return nil, 0, p.errorf(i, "unescaped ]]> not in CDATA section")
			}
			buf = buf[:len(buf)-2]
			i++
			break
		}
		if b == '<' && !cdata {
			if quote >= 0 {
				return nil, 0, p.errorf(i, "unescaped < inside quoted string")
			}
			break
		}
		if quote >= 0 && b == byte(quote) {
			i++
			break
		}
		if b == '&' && !cdata {
			r, n := reference(src[i:])
			if n == 0 {
				return nil, 0, p.errorf(i, "invalid character entity")
			}
			// A surrogate code point is written as U+FFFD, which is
			// how encoding/xml lets &#xD800; through.
			buf = utf8.AppendRune(buf, r)
			i += n - 1
			b0, b1 = 0, 0
			continue
		}
		switch {
		case b == '\r':
			buf = append(buf, '\n')
		case b == '\n' && b1 == '\r':
			// the "\r" already wrote this line end
		default:
			buf = append(buf, b)
		}
		b0, b1 = b1, b
	}
	p.buf = buf
	for k := 0; k < len(buf); {
		if c := buf[k]; c < utf8.RuneSelf {
			if c < 0x20 && c != '\t' && c != '\n' && c != '\r' {
				return nil, 0, p.errorf(i, "illegal character code %U", rune(c))
			}
			k++
			continue
		}
		r, size := utf8.DecodeRune(buf[k:])
		if r == utf8.RuneError && size == 1 {
			return nil, 0, p.errorf(i, "invalid UTF-8")
		}
		if r > 0xD7FF && r < 0xE000 || r == 0xFFFE || r == 0xFFFF {
			return nil, 0, p.errorf(i, "illegal character code %U", r)
		}
		k += size
	}
	return buf, i, nil
}

// reference decodes the reference at the start of s, which begins
// with '&': one of the five predefined entities, or a decimal or
// (lower-case x) hexadecimal character reference to a code point up
// to U+10FFFF. It returns the character and the length of the
// reference, 0 when it is malformed, unknown or has no semicolon.
func reference(s []byte) (rune, int) {
	if len(s) > 2 && s[1] == '#' {
		i, base := 2, rune(10)
		if s[i] == 'x' {
			i, base = 3, 16
		}
		start := i
		var r rune
		for ; i < len(s); i++ {
			var digit rune
			switch c := s[i]; {
			case '0' <= c && c <= '9':
				digit = rune(c - '0')
			case base == 16 && 'a' <= c && c <= 'f':
				digit = rune(c-'a') + 10
			case base == 16 && 'A' <= c && c <= 'F':
				digit = rune(c-'A') + 10
			default:
				if c != ';' || i == start || r > utf8.MaxRune {
					return 0, 0
				}
				return r, i + 1
			}
			if r <= utf8.MaxRune { // past it, only the verdict matters
				r = r*base + digit
			}
		}
		return 0, 0
	}
	for _, e := range [...]struct {
		name string
		r    rune
	}{{"&lt;", '<'}, {"&gt;", '>'}, {"&amp;", '&'}, {"&apos;", '\''}, {"&quot;", '"'}} {
		if bytes.HasPrefix(s, []byte(e.name)) {
			return e.r, len(e.name)
		}
	}
	return 0, 0
}

// procInst reads the processing instruction at i. <?xml ...?> is
// checked — version 1.0, UTF-8 — and never becomes a node, wherever in
// the document it stands.
func (p *parser) procInst(cur *Node, i int) (int, error) {
	src := p.src
	end, err := p.name(i+2, false, "target name after <?")
	if err != nil {
		return 0, err
	}
	target := src[i+2 : end]
	start := p.skipSpace(end)
	n := bytes.Index(src[start:], []byte("?>"))
	if n < 0 {
		return 0, p.errEOF()
	}
	body := src[start : start+n]
	isDecl := string(target) == "xml"
	if isDecl {
		if v := declParam(body, "version"); len(v) > 0 && string(v) != "1.0" {
			return 0, fmt.Errorf("dom: unsupported XML version %q; only version 1.0 is supported", v)
		}
		if enc := declParam(body, "encoding"); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return 0, fmt.Errorf("dom: unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	if err := p.token(); err != nil {
		return 0, err
	}
	if p.opts.KeepProcInsts && !isDecl {
		p.kids = append(p.kids, &Node{Type: ProcInst, Name: string(target), Value: string(body), Parent: cur})
	}
	return start + n + 2, nil
}

// declParam returns the value of name="..." (or '...') in the body of
// an XML declaration, nil when it is absent. The search is
// encoding/xml's: the first occurrence of name= that a quote follows,
// up to the next quote of the same kind.
func declParam(body []byte, name string) []byte {
	key := []byte(name + "=")
	for len(body) > 0 {
		k := bytes.Index(body, key)
		if k < 0 || k+len(key) >= len(body) {
			return nil
		}
		quote := body[k+len(key)]
		body = body[k+len(key)+1:]
		if quote == '"' || quote == '\'' {
			if end := bytes.IndexByte(body, quote); end >= 0 {
				return body[:end]
			}
			return nil
		}
	}
	return nil
}

// bang reads what starts with "<!" at i: a comment, a CDATA section or
// a directive, of which only <!DOCTYPE ...> is kept, as doc.Doctype.
func (p *parser) bang(doc, cur *Node, i int) (int, error) {
	src := p.src
	if i+2 == len(src) {
		return 0, p.errEOF()
	}
	switch src[i+2] {
	case '-':
		if i+3 == len(src) {
			return 0, p.errEOF()
		}
		if src[i+3] != '-' {
			return 0, p.errorf(i, "invalid sequence <!- not part of <!--")
		}
		// The first "--" in the body must be the one before '>'.
		body := src[i+4:]
		n := bytes.Index(body, []byte("--"))
		if n < 0 || n+2 == len(body) {
			return 0, p.errEOF()
		}
		if body[n+2] != '>' {
			return 0, p.errorf(i+4+n, `invalid sequence "--" not allowed in comments`)
		}
		if err := p.token(); err != nil {
			return 0, err
		}
		if p.opts.KeepComments {
			p.kids = append(p.kids, &Node{Type: Comment, Value: string(body[:n]), Parent: cur})
		}
		return i + 4 + n + 3, nil
	case '[':
		const open = "<![CDATA["
		for k := 3; k < len(open); k++ {
			if i+k == len(src) {
				return 0, p.errEOF()
			}
			if src[i+k] != open[k] {
				return 0, p.errorf(i, "invalid <![ sequence")
			}
		}
		return p.charData(cur, i+len(open), true)
	}
	text, end, err := p.directive(i + 2)
	if err != nil {
		return 0, err
	}
	if err := p.token(); err != nil {
		return 0, err
	}
	// The DOCTYPE text goes to package dtd for ID-attribute discovery;
	// other directives are not part of the model.
	if bytes.HasPrefix(text, []byte("DOCTYPE")) {
		doc.Doctype = string(text)
	}
	return end, nil
}

// directive reads the text of a <!...> directive whose first byte is
// at i, up to the '>' that closes it, and returns the text and the
// index after that '>'. Quoted strings hide angle brackets, unquoted
// '<' and '>' nest, and a <!-- comment --> inside is replaced by one
// space so the markup around it does not join up. The first byte is
// taken as it is, whatever it is.
func (p *parser) directive(i int) ([]byte, int, error) {
	src := p.src
	buf := append(p.buf[:0], src[i])
	var inquote byte
	depth := 0
	for i++; ; i++ {
		if i == len(src) {
			return nil, 0, p.errEOF()
		}
		b := src[i]
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
		buf = append(buf, b)
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			if !bytes.HasPrefix(src[i+1:], []byte("!--")) {
				// Not a comment: whatever of "!--" is there is text
				// (its bytes are neither quotes nor brackets).
				const bang = "!--"
				for k := 0; i+1 < len(src) && src[i+1] == bang[k]; k++ {
					i++
					buf = append(buf, src[i])
				}
				depth++
				continue
			}
			n := bytes.Index(src[i+4:], []byte("-->"))
			if n < 0 {
				return nil, 0, p.errEOF()
			}
			i += 4 + n + 2
			buf[len(buf)-1] = ' '
		}
	}
	p.buf = buf
	return buf, i + 1, nil
}

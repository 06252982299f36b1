package dom

import (
	"bytes"
	"fmt"
	"unicode/utf8"
)

// parser is the state of one parse: a cursor-free tokenizer (every
// method takes the index it starts at and returns the index it stopped
// at) that reads one token per next call, and the builder (content)
// that turns tokens into Nodes. It accepts exactly what strict
// encoding/xml accepts and normalises exactly as it does; the comments
// below name each rule where it is enforced, and FuzzParseDifferential
// holds the two to the same verdicts and trees.
type parser struct {
	src  []byte
	opts ParseOptions
	pos  int   // where the next token starts
	err  error // the first error; every later call returns it

	// The token next read, by kind: tag is a start or end tag's name or
	// a processing instruction's target, attrs a start tag's attributes,
	// empty whether it closed itself, data the decoded character data,
	// a comment's or instruction's body, or a DOCTYPE's text. All of it
	// aliases src or the scratch below, until the next token.
	tag   []byte
	attrs []TokenAttr
	empty bool
	data  []byte

	// open holds the names of the open elements, outermost first: an
	// end tag must spell the innermost one, and the depth limit counts
	// them.
	open       [][]byte
	sawElement bool
	tokens     int64

	// buf is the scratch the slow paths decode into: character data
	// that holds a reference, a '\r', a '>', a control byte or a
	// non-ASCII byte, and directive text. vals does the same for the
	// attribute values of one start tag, which must all stay valid
	// until the tag is handed over.
	buf  []byte
	vals []byte

	// The builder. names interns element and attribute names: a
	// document has few distinct ones, so each is allocated once per
	// parse. kids holds the children built so far of every open element,
	// the innermost element's last; marks holds where the children of
	// each open element begin. An element's Children slice is cut from
	// kids when its end tag is read — one exact allocation however many
	// children it has. text is the text node that later character data
	// still extends: the tree never holds two neighbouring text nodes.
	names map[string]string
	kids  []*Node
	marks []int
	text  *Node
}

// Internal token kinds, beside the exported ones: tokNone is input
// read that makes no token under the options (dropped whitespace, a
// dropped comment or instruction, the XML declaration, a directive
// other than DOCTYPE); tokEOF is the end of a well-formed input.
const (
	tokNone TokenKind = iota
	tokEOF  TokenKind = 255
)

// Byte classes of the fast paths. textStop ends the plain scan of
// character data: '<' ends the run, the rest need decode's care
// ('>' only because "]]>" must be refused). attrStop does the same
// inside a quoted attribute value, where '>' is plain and either quote
// character may be the closing one.
var (
	textStop      [256]bool
	attrStop      [256]bool
	nameClass     [256]uint8 // 0 ends a name; bytes >= 0x80 are checked as runes later
	nameStartByte [256]bool
)

// The classes of name bytes. name ORs them together over a name, so it
// decodes runes only in a name that has a non-ASCII byte and counts
// colons only in one that has a colon.
const (
	nameChar     = 1 << iota // an ASCII byte a name may continue with
	nameColon                // ':'
	nameNonASCII             // any byte >= 0x80
)

func init() {
	for c := 0; c < 256; c++ {
		special := c >= utf8.RuneSelf || c == '&' || c == '<' || c == '\r' ||
			(c < 0x20 && c != '\t' && c != '\n')
		textStop[c] = special || c == '>'
		attrStop[c] = special || c == '"' || c == '\''
		letter := 'A' <= c && c <= 'Z' || 'a' <= c && c <= 'z'
		nameStartByte[c] = letter || c == '_' || c == ':'
		switch {
		case c == ':':
			nameClass[c] = nameColon
		case c >= utf8.RuneSelf:
			nameClass[c] = nameNonASCII
		case nameStartByte[c] || '0' <= c && c <= '9' || c == '.' || c == '-':
			nameClass[c] = nameChar
		}
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
		return &LimitError{What: "tokens", limit: max}
	}
	return nil
}

// next reads the token at p.pos. At the end of the input it checks
// what a document must have — every element closed, a root element —
// and returns tokEOF. An error sticks: every later call returns it.
func (p *parser) next() (TokenKind, error) {
	if p.err != nil {
		return tokNone, p.err
	}
	src, i := p.src, p.pos
	var kind TokenKind
	var err error
	switch {
	case i == len(src):
		switch {
		case len(p.open) > 0:
			err = p.errEOF()
		case !p.sawElement:
			err = fmt.Errorf("dom: document has no root element")
		default:
			return tokEOF, nil
		}
	case src[i] != '<':
		kind, i, err = p.charRun(i)
	case i+1 == len(src):
		err = p.errEOF()
	case src[i+1] == '/':
		kind, i, err = p.endTag(i)
	case src[i+1] == '?':
		kind, i, err = p.procInst(i)
	case src[i+1] == '!':
		kind, i, err = p.bang(i)
	default:
		kind, i, err = p.startTag(i)
		p.sawElement = true
	}
	if err != nil {
		p.err = err
		return tokNone, err
	}
	p.pos = i
	return kind, nil
}

// content builds the nodes that follow, up to the end tag that closes
// the innermost open element (read, not built) or, when no element is
// open, to the end of the input. The nodes it returns are parent's
// would-be children, Parent set to parent; the slice aliases the
// builder's scratch. done, when not nil, is called for every node built
// as it completes — an element at its end tag, a text node when
// something other than character data follows it — which is post-order.
// A DOCTYPE is recorded on parent when parent is a Document.
func (p *parser) content(parent *Node, done func(*Node)) ([]*Node, error) {
	base, depth := len(p.kids), len(p.open)
	cur := parent
	p.text = nil
	for {
		kind, err := p.next()
		if err != nil {
			return nil, err
		}
		switch kind {
		case TokenStart:
			p.endText(done)
			el := p.element(cur)
			p.kids = append(p.kids, el)
			if p.empty {
				if done != nil {
					done(el)
				}
				continue
			}
			p.marks = append(p.marks, len(p.kids))
			cur = el
		case TokenEnd:
			p.endText(done)
			if len(p.open) < depth {
				return p.cut(base), nil
			}
			start := p.marks[len(p.marks)-1]
			p.marks = p.marks[:len(p.marks)-1]
			if start < len(p.kids) {
				cur.Children = append([]*Node(nil), p.kids[start:]...)
				p.kids = p.kids[:start]
			}
			if done != nil {
				done(cur)
			}
			cur = cur.Parent
		case TokenText:
			if p.text != nil {
				p.text.Value += string(p.data)
				continue
			}
			p.text = &Node{Type: Text, Value: string(p.data), Parent: cur}
			p.kids = append(p.kids, p.text)
		case tokenComment, tokenProcInst:
			p.endText(done)
			n := &Node{Type: Comment, Value: string(p.data), Parent: cur}
			if kind == tokenProcInst {
				n.Type, n.Name = ProcInst, string(p.tag)
			}
			p.kids = append(p.kids, n)
			if done != nil {
				done(n)
			}
		case tokenDoctype:
			// The DOCTYPE text goes to package dtd for ID-attribute
			// discovery; other directives are not part of the model.
			if parent != nil && parent.Type == Document {
				parent.Doctype = string(p.data)
			}
		case tokEOF:
			p.endText(done)
			return p.cut(base), nil
		}
	}
}

// endText completes the text node character data was still extending.
func (p *parser) endText(done func(*Node)) {
	if p.text != nil && done != nil {
		done(p.text)
	}
	p.text = nil
}

// cut takes the nodes built since base off the kids stack.
func (p *parser) cut(base int) []*Node {
	kids := p.kids[base:]
	p.kids = p.kids[:base]
	return kids
}

// element builds the element of the start tag just read.
func (p *parser) element(parent *Node) *Node {
	el := &Node{Type: Element, Name: p.intern(p.tag), Parent: parent}
	if len(p.attrs) > 0 {
		el.Attrs = make([]Attr, len(p.attrs))
		for k, a := range p.attrs {
			el.Attrs[k] = Attr{Name: p.intern(a.Name), Value: string(a.Value)}
		}
	}
	return el
}

func (p *parser) intern(name []byte) string {
	if s, ok := p.names[string(name)]; ok {
		return s
	}
	if p.names == nil {
		p.names = make(map[string]string)
	}
	s := string(name)
	p.names[s] = s
	return s
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
	end, seen := i, uint8(0)
	for ; end < len(src); end++ {
		c := nameClass[src[end]]
		if c == 0 {
			break
		}
		seen |= c
	}
	if seen == nameChar && end < len(src) && nameStartByte[src[i]] {
		return end, nil // ASCII without a colon, a letter or '_' first
	}
	return p.checkName(i, end, seen, qualified, what)
}

// checkName is name's verdict on the run of name bytes src[i:end],
// the OR of whose classes is seen.
func (p *parser) checkName(i, end int, seen uint8, qualified bool, what string) (int, error) {
	src := p.src
	switch {
	case end == len(src):
		return 0, p.errEOF()
	case end == i:
		return 0, p.errorf(i, "expected %s", what)
	case !isName(src[i:end], seen):
		return 0, p.errorf(i, "invalid XML name: %s", src[i:end])
	case qualified && seen&nameColon != 0 && bytes.Count(src[i:end], []byte{':'}) > 1:
		return 0, p.errorf(i, "expected %s", what)
	}
	return end, nil
}

// startTag reads the start tag at i and returns the index after it.
// Attributes need no space between them and may repeat, as
// encoding/xml allows.
func (p *parser) startTag(i int) (TokenKind, int, error) {
	src := p.src
	end, err := p.name(i+1, true, "element name after <")
	if err != nil {
		return tokNone, 0, err
	}
	p.tag = src[i+1 : end]
	attrs, vals := p.attrs[:0], p.vals[:0]
	p.empty = false
	for i = end; ; {
		if i = p.skipSpace(i); i == len(src) {
			return tokNone, 0, p.errEOF()
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' {
			if i+1 == len(src) {
				return tokNone, 0, p.errEOF()
			}
			if src[i+1] != '>' {
				return tokNone, 0, p.errorf(i, "expected /> in element")
			}
			p.empty = true
			i += 2
			break
		}
		if end, err = p.name(i, true, "attribute name in element"); err != nil {
			return tokNone, 0, err
		}
		attr := TokenAttr{Name: src[i:end]}
		if i = p.skipSpace(end); i == len(src) {
			return tokNone, 0, p.errEOF()
		}
		if src[i] != '=' {
			return tokNone, 0, p.errorf(i, "attribute name without = in element")
		}
		if i = p.skipSpace(i + 1); i == len(src) {
			return tokNone, 0, p.errEOF()
		}
		quote, other := src[i], byte('\'')
		switch quote {
		case '"':
		case '\'':
			other = '"'
		default:
			return tokNone, 0, p.errorf(i, "unquoted or missing attribute value in element")
		}
		// Plain scan to the closing quote; anything that needs
		// rewriting or checking sends the whole value through decode,
		// which appends it to vals. A value decoded earlier stays where
		// it is: appending only writes past it, and a grown vals leaves
		// it in the old array.
		i++
		for end = i; end < len(src) && (!attrStop[src[end]] || src[end] == other); {
			end++
		}
		if end < len(src) && src[end] == quote {
			attr.Value = src[i:end]
			i = end + 1
		} else {
			start := len(vals)
			if vals, i, err = p.decode(vals, i, int(quote), false); err != nil {
				return tokNone, 0, err
			}
			attr.Value = vals[start:]
		}
		attrs = append(attrs, attr)
	}
	p.attrs, p.vals = attrs, vals
	if err := p.token(); err != nil {
		return tokNone, 0, err
	}
	// The new element's depth counts itself: the document's is 0.
	if max := p.opts.Limits.MaxDepth; max > 0 && len(p.open)+1 > max {
		return tokNone, 0, &LimitError{What: "depth", limit: int64(max)}
	}
	if p.empty {
		return TokenStart, i, p.token()
	}
	p.open = append(p.open, p.tag)
	return TokenStart, i, nil
}

// endTag reads the end tag at i, which must close the innermost open
// element, and returns the index after it. Tags match by their
// spelling, prefix included.
func (p *parser) endTag(i int) (TokenKind, int, error) {
	src := p.src
	if k := len(p.open); k > 0 {
		// The usual case: the innermost element's name, checked when it
		// opened, then '>'. Anything else takes the long way, which
		// finds the error.
		name := p.open[k-1]
		if end := i + 2 + len(name); end < len(src) && nameClass[src[end]] == 0 && bytes.Equal(src[i+2:end], name) {
			if end = p.skipSpace(end); end < len(src) && src[end] == '>' {
				p.open = p.open[:k-1]
				p.tag = src[i+2 : i+2+len(name)]
				return TokenEnd, end + 1, p.token()
			}
		}
	}
	end, err := p.name(i+2, true, "element name after </")
	if err != nil {
		return tokNone, 0, err
	}
	name := src[i+2 : end]
	if end = p.skipSpace(end); end == len(src) {
		return tokNone, 0, p.errEOF()
	}
	switch {
	case src[end] != '>':
		return tokNone, 0, p.errorf(end, "invalid characters between </%s and >", name)
	case len(p.open) == 0:
		return tokNone, 0, p.errorf(i, "unexpected end element </%s>", name)
	case !bytes.Equal(name, p.open[len(p.open)-1]):
		return tokNone, 0, p.errorf(i, "element <%s> closed by </%s>", p.open[len(p.open)-1], name)
	}
	p.open = p.open[:len(p.open)-1]
	p.tag = name
	return TokenEnd, end + 1, p.token()
}

// charRun reads the run of character data that starts at i and ends
// at the next '<' or at the end of the input. The whitespace-only test
// is made per run, before CDATA sections and neighbouring runs are
// merged into one text node.
func (p *parser) charRun(i int) (TokenKind, int, error) {
	src := p.src
	if !p.opts.KeepWhitespace {
		// Indentation between tags, the common case: dropped unseen.
		if end := p.skipSpace(i); end == len(src) || src[end] == '<' {
			return tokNone, end, p.token()
		}
	}
	end := i
	for end < len(src) && !textStop[src[end]] {
		end++
	}
	if end == len(src) || src[end] == '<' {
		p.data = src[i:end]
		return TokenText, end, p.token()
	}
	return p.charData(i, false)
}

// charData is the slow path of charRun, and the only path of a CDATA
// section (whose content starts at i).
func (p *parser) charData(i int, cdata bool) (TokenKind, int, error) {
	data, end, err := p.decode(p.buf[:0], i, -1, cdata)
	if err != nil {
		return tokNone, 0, err
	}
	p.buf = data
	if err := p.token(); err != nil {
		return tokNone, 0, err
	}
	// Unicode white space, as strings.TrimSpace sees it: &#160; alone
	// is a whitespace-only run.
	if !p.opts.KeepWhitespace && len(bytes.TrimSpace(data)) == 0 {
		return tokNone, end, nil
	}
	p.data = data
	return TokenText, end, nil
}

// decode reads character data (quote < 0), a CDATA section's content
// (cdata) or an attribute value whose closing quote is quote, starting
// at i, appends it decoded to buf, and returns the extended buf and the
// index after the run: at the '<' or the end of input that ends
// character data, after the "]]>" that ends a CDATA section, after the
// closing quote. It expands references, rewrites "\r\n" and "\r" to
// "\n", refuses "]]>" outside CDATA and '<' inside a value, and checks
// what it appended for invalid UTF-8 and for characters outside the XML
// Char range.
func (p *parser) decode(buf []byte, i, quote int, cdata bool) ([]byte, int, error) {
	src := p.src
	start := len(buf)
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
	for k := start; k < len(buf); {
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
// checked — version 1.0, UTF-8 — and never becomes a token, wherever in
// the document it stands.
func (p *parser) procInst(i int) (TokenKind, int, error) {
	src := p.src
	end, err := p.name(i+2, false, "target name after <?")
	if err != nil {
		return tokNone, 0, err
	}
	target := src[i+2 : end]
	start := p.skipSpace(end)
	n := bytes.Index(src[start:], []byte("?>"))
	if n < 0 {
		return tokNone, 0, p.errEOF()
	}
	body := src[start : start+n]
	isDecl := string(target) == "xml"
	if isDecl {
		if v := declParam(body, "version"); len(v) > 0 && string(v) != "1.0" {
			return tokNone, 0, fmt.Errorf("dom: unsupported XML version %q; only version 1.0 is supported", v)
		}
		if enc := declParam(body, "encoding"); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return tokNone, 0, fmt.Errorf("dom: unsupported encoding %q; only UTF-8 is supported", enc)
		}
	}
	if err := p.token(); err != nil {
		return tokNone, 0, err
	}
	if !p.opts.KeepProcInsts || isDecl {
		return tokNone, start + n + 2, nil
	}
	p.tag, p.data = target, body
	return tokenProcInst, start + n + 2, nil
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
// a directive, of which only <!DOCTYPE ...> makes a token.
func (p *parser) bang(i int) (TokenKind, int, error) {
	src := p.src
	if i+2 == len(src) {
		return tokNone, 0, p.errEOF()
	}
	switch src[i+2] {
	case '-':
		if i+3 == len(src) {
			return tokNone, 0, p.errEOF()
		}
		if src[i+3] != '-' {
			return tokNone, 0, p.errorf(i, "invalid sequence <!- not part of <!--")
		}
		// The first "--" in the body must be the one before '>'.
		body := src[i+4:]
		n := bytes.Index(body, []byte("--"))
		if n < 0 || n+2 == len(body) {
			return tokNone, 0, p.errEOF()
		}
		if body[n+2] != '>' {
			return tokNone, 0, p.errorf(i+4+n, `invalid sequence "--" not allowed in comments`)
		}
		if err := p.token(); err != nil {
			return tokNone, 0, err
		}
		if !p.opts.KeepComments {
			return tokNone, i + 4 + n + 3, nil
		}
		p.data = body[:n]
		return tokenComment, i + 4 + n + 3, nil
	case '[':
		const open = "<![CDATA["
		for k := 3; k < len(open); k++ {
			if i+k == len(src) {
				return tokNone, 0, p.errEOF()
			}
			if src[i+k] != open[k] {
				return tokNone, 0, p.errorf(i, "invalid <![ sequence")
			}
		}
		return p.charData(i+len(open), true)
	}
	text, end, err := p.directive(i + 2)
	if err != nil {
		return tokNone, 0, err
	}
	if err := p.token(); err != nil {
		return tokNone, 0, err
	}
	if !bytes.HasPrefix(text, []byte("DOCTYPE")) {
		return tokNone, end, nil
	}
	p.data = text
	return tokenDoctype, end, nil
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

// Package htmlize converts HTML into well-formed XML trees so the diff
// can process web pages: the paper's Section 1 notes the diff "can also
// be used for HTML documents by XMLizing them, a relatively easy task
// that mostly consists in properly closing tags."
//
// The converter is a lenient tokenizer plus a stack-based tree builder:
//
//   - void elements (<br>, <img>, ...) never take children;
//   - known auto-close pairs are applied (<li> closes an open <li>,
//     <p> closes an open <p>, table rows and cells close each other,
//     ...);
//   - unmatched end tags are dropped; unclosed elements are closed at
//     EOF (or when an ancestor closes);
//   - tag and attribute names are lowercased; attribute values may be
//     unquoted, single-quoted, double-quoted or bare (bare becomes
//     attr="attr").
//
// The result is a dom.Document ready for xydiff.Diff.
package htmlize

import (
	"strings"
	"unicode/utf8"

	"xydiff/internal/dom"
)

// voidElements never have content in HTML.
var voidElements = map[string]bool{
	"area": true, "base": true, "br": true, "col": true, "embed": true,
	"hr": true, "img": true, "input": true, "link": true, "meta": true,
	"param": true, "source": true, "track": true, "wbr": true,
}

// autoClose maps an opening tag to the set of open tags it implicitly
// closes (scanning upward until a non-member is found).
var autoClose = map[string]map[string]bool{
	"li":     {"li": true},
	"dt":     {"dd": true, "dt": true},
	"dd":     {"dd": true, "dt": true},
	"p":      {"p": true},
	"tr":     {"tr": true, "td": true, "th": true},
	"td":     {"td": true, "th": true},
	"th":     {"td": true, "th": true},
	"option": {"option": true},
	"thead":  {"tr": true, "td": true, "th": true},
	"tbody":  {"thead": true, "tr": true, "td": true, "th": true},
}

// blockStartsClosingP lists block elements whose start tag implicitly
// terminates an open paragraph.
var blockStartsClosingP = map[string]bool{
	"div": true, "ul": true, "ol": true, "table": true, "h1": true,
	"h2": true, "h3": true, "h4": true, "h5": true, "h6": true,
	"blockquote": true, "pre": true, "form": true, "section": true,
	"article": true, "header": true, "footer": true,
}

// rawTextElements swallow everything up to their literal end tag.
var rawTextElements = map[string]bool{"script": true, "style": true}

// Parse converts HTML text into a well-formed XML document tree.
// Whitespace-only text is dropped, mirroring dom.Parse defaults.
func Parse(html string) *dom.Node {
	doc := dom.NewDocument()
	cur := doc
	p := &parser{src: html}
	appendText := func(s string) {
		s = sanitizeChars(s)
		if strings.TrimSpace(s) == "" {
			return
		}
		if k := len(cur.Children); k > 0 && cur.Children[k-1].Type == dom.Text {
			cur.Children[k-1].Value += s
			return
		}
		cur.Append(dom.NewText(s))
	}
	for {
		tok, ok := p.next()
		if !ok {
			break
		}
		switch tok.kind {
		case tokText:
			appendText(decodeEntities(tok.text))
		case tokComment:
			cur.Append(&dom.Node{Type: dom.Comment, Value: sanitizeComment(tok.text)})
		case tokDoctype:
			// dropped: the XMLized tree stands alone
		case tokStart, tokSelfClose:
			name := strings.ToLower(tok.text)
			// Implicit closes.
			if members := autoClose[name]; members != nil {
				for cur != doc && members[cur.Name] {
					cur = cur.Parent
				}
			}
			if blockStartsClosingP[name] {
				for n := cur; n != doc; n = n.Parent {
					if n.Name == "p" {
						cur = n.Parent
						break
					}
				}
			}
			el := dom.NewElement(name)
			el.Attrs = tok.attrs
			cur.Append(el)
			if tok.kind == tokSelfClose || voidElements[name] {
				break
			}
			cur = el
			if rawTextElements[name] {
				raw := sanitizeChars(p.rawUntil("</" + name))
				if strings.TrimSpace(raw) != "" {
					el.Append(dom.NewText(raw))
				}
				cur = el.Parent
			}
		case tokEnd:
			name := strings.ToLower(tok.text)
			// Find a matching open element; drop the end tag if none.
			for n := cur; n != doc; n = n.Parent {
				if n.Name == name {
					cur = n.Parent
					break
				}
			}
		}
	}
	if doc.Root() == nil {
		// Guarantee a root element even for fragment or text input.
		html := dom.NewElement("html")
		for len(doc.Children) > 0 {
			c := doc.Children[0]
			doc.RemoveAt(0)
			html.Append(c)
		}
		doc.Append(html)
	}
	return doc
}

type tokKind uint8

const (
	tokText tokKind = iota
	tokStart
	tokEnd
	tokSelfClose
	tokComment
	tokDoctype
)

type tok struct {
	kind  tokKind
	text  string
	attrs []dom.Attr
}

type parser struct {
	src string
	pos int
}

func (p *parser) next() (tok, bool) {
	if p.pos >= len(p.src) {
		return tok{}, false
	}
	if p.src[p.pos] != '<' {
		end := strings.IndexByte(p.src[p.pos:], '<')
		if end < 0 {
			end = len(p.src) - p.pos
		}
		t := tok{kind: tokText, text: p.src[p.pos : p.pos+end]}
		p.pos += end
		return t, true
	}
	rest := p.src[p.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		end := strings.Index(rest[4:], "-->")
		if end < 0 {
			p.pos = len(p.src)
			return tok{kind: tokComment, text: rest[4:]}, true
		}
		p.pos += 4 + end + 3
		return tok{kind: tokComment, text: rest[4 : 4+end]}, true
	case strings.HasPrefix(rest, "<!"), strings.HasPrefix(rest, "<?"):
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			p.pos = len(p.src)
			return tok{kind: tokDoctype, text: rest}, true
		}
		p.pos += end + 1
		return tok{kind: tokDoctype, text: rest[:end+1]}, true
	case strings.HasPrefix(rest, "</"):
		end := strings.IndexByte(rest, '>')
		if end < 0 {
			p.pos = len(p.src)
			return tok{}, false
		}
		name := strings.TrimSpace(rest[2:end])
		p.pos += end + 1
		return tok{kind: tokEnd, text: name}, true
	default:
		return p.startTag()
	}
}

// startTag scans "<name attr=... >" handling quoted values containing
// '>' correctly.
func (p *parser) startTag() (tok, bool) {
	start := p.pos + 1
	i := nameEnd(p.src, start)
	if i == start || !isNameStartByte(p.src[start]) {
		// "<" followed by junk or a non-name: literal text.
		p.pos++
		return tok{kind: tokText, text: "<"}, true
	}
	t := tok{kind: tokStart, text: p.src[start:i]}
	// Attributes.
	for i < len(p.src) {
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) {
			break
		}
		if p.src[i] == '>' {
			i++
			p.pos = i
			return t, true
		}
		if p.src[i] == '<' {
			// A '<' inside a tag: the tag was never closed. Treat it as
			// implicitly ended here and reparse the '<' (browser-style
			// recovery).
			p.pos = i
			return t, true
		}
		if p.src[i] == '/' {
			i++
			if i < len(p.src) && p.src[i] == '>' {
				i++
				p.pos = i
				t.kind = tokSelfClose
				return t, true
			}
			continue
		}
		// Attribute name: keep only XML-safe name characters so the
		// serialized output stays well-formed.
		nameStart := i
		i = nameEnd(p.src, i)
		name := strings.ToLower(p.src[nameStart:i])
		if name == "" {
			i++ // junk byte: skip it
			continue
		}
		if !isNameStartByte(name[0]) {
			continue // "--" and similar junk: not a legal XML name
		}
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		if i >= len(p.src) || p.src[i] != '=' {
			t.attrs = setAttr(t.attrs, name, name) // bare attribute
			continue
		}
		i++ // consume '='
		for i < len(p.src) && isSpace(p.src[i]) {
			i++
		}
		var value string
		if i < len(p.src) && (p.src[i] == '"' || p.src[i] == '\'') {
			q := p.src[i]
			i++
			vStart := i
			for i < len(p.src) && p.src[i] != q {
				i++
			}
			value = p.src[vStart:i]
			if i < len(p.src) {
				i++
			}
		} else {
			vStart := i
			for i < len(p.src) && !isSpace(p.src[i]) && p.src[i] != '>' {
				i++
			}
			value = p.src[vStart:i]
		}
		t.attrs = setAttr(t.attrs, name, decodeEntities(value))
	}
	p.pos = len(p.src)
	return t, true
}

// rawUntil consumes raw text until the (case-insensitive) marker and
// past the following '>'. The fold is byte-wise ASCII: strings.ToLower
// would re-encode invalid UTF-8 bytes as the multi-byte replacement
// rune, so indexes into the lowered copy would not map back to source
// offsets (a fuzzer-found out-of-bounds on `</sCript` cut off at EOF
// after non-UTF-8 raw text).
func (p *parser) rawUntil(marker string) string {
	idx := asciiIndexFold(p.src[p.pos:], marker)
	if idx < 0 {
		out := p.src[p.pos:]
		p.pos = len(p.src)
		return out
	}
	out := p.src[p.pos : p.pos+idx]
	rest := p.src[p.pos+idx:]
	if gt := strings.IndexByte(rest, '>'); gt >= 0 {
		p.pos += idx + gt + 1
	} else {
		p.pos = len(p.src)
	}
	return out
}

func setAttr(attrs []dom.Attr, name, value string) []dom.Attr {
	value = sanitizeChars(value)
	for i := range attrs {
		if attrs[i].Name == name {
			attrs[i].Value = value // last wins, as browsers do
			return attrs
		}
	}
	return append(attrs, dom.Attr{Name: name, Value: value})
}

// decodeEntities resolves the predefined and numeric entities; unknown
// entities are left as literal text (lenient, like browsers).
func decodeEntities(s string) string {
	if !strings.ContainsRune(s, '&') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		if s[i] != '&' {
			b.WriteByte(s[i])
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 || semi > 10 {
			b.WriteByte('&')
			i++
			continue
		}
		ent := s[i+1 : i+semi]
		switch ent {
		case "amp":
			b.WriteByte('&')
		case "lt":
			b.WriteByte('<')
		case "gt":
			b.WriteByte('>')
		case "quot":
			b.WriteByte('"')
		case "apos":
			b.WriteByte('\'')
		case "nbsp":
			b.WriteByte(' ')
		default:
			if r, ok := numericEntity(ent); ok {
				b.WriteRune(r)
			} else {
				b.WriteByte('&')
				i++
				continue
			}
		}
		i += semi + 1
	}
	return b.String()
}

func numericEntity(ent string) (rune, bool) {
	if len(ent) < 2 || ent[0] != '#' {
		return 0, false
	}
	body := ent[1:]
	base := 10
	if body[0] == 'x' || body[0] == 'X' {
		base = 16
		body = body[1:]
	}
	var v int64
	for i := 0; i < len(body); i++ {
		d := digitVal(body[i])
		if d < 0 || d >= base {
			return 0, false
		}
		v = v*int64(base) + int64(d)
		if v > 0x10FFFF {
			return 0, false
		}
	}
	if v == 0 {
		return 0, false
	}
	return rune(v), true
}

func digitVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	default:
		return -1
	}
}

// sanitizeComment makes arbitrary HTML comment text legal as an XML
// comment: no "--" runs and no trailing '-'.
func sanitizeComment(s string) string {
	s = sanitizeChars(s)
	// A single ReplaceAll can re-create "--" at the seams ("---"), so
	// iterate; each pass breaks at least one adjacency.
	for strings.Contains(s, "--") {
		s = strings.ReplaceAll(s, "--", "- -")
	}
	return strings.TrimRight(s, "-")
}

// sanitizeChars removes characters XML 1.0 cannot represent: control
// characters other than tab/newline/CR, invalid UTF-8 sequences, and
// the non-characters U+FFFE/U+FFFF.
func sanitizeChars(s string) string {
	clean := true
	for _, r := range s {
		if !legalXMLRune(r) {
			clean = false
			break
		}
	}
	if clean && utf8.ValidString(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if r == utf8.RuneError || !legalXMLRune(r) {
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

func legalXMLRune(r rune) bool {
	switch {
	case r == '\t' || r == '\n' || r == '\r':
		return true
	case r < 0x20:
		return false
	case r >= 0xD800 && r <= 0xDFFF:
		return false
	case r == 0xFFFE || r == 0xFFFF:
		return false
	default:
		return r <= 0x10FFFF
	}
}

// asciiIndexFold reports the first index of substr in s under
// ASCII-only case folding. Unlike strings.ToLower+Index it never
// changes byte lengths, so the returned index is a valid offset into s
// even when s contains invalid UTF-8.
func asciiIndexFold(s, substr string) int {
	if len(substr) == 0 {
		return 0
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		j := 0
		for j < len(substr) && asciiLower(s[i+j]) == asciiLower(substr[j]) {
			j++
		}
		if j == len(substr) {
			return i
		}
	}
	return -1
}

func asciiLower(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

func isNameByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' || c == ':'
}

// nameEnd returns the end of the run of name bytes starting at src[i],
// stopped before a second colon: the XML reader takes a name with one
// colon as qualified and refuses a name with more.
func nameEnd(src string, i int) int {
	colon := false
	for ; i < len(src) && isNameByte(src[i]); i++ {
		if src[i] == ':' {
			if colon {
				break
			}
			colon = true
		}
	}
	return i
}

func isNameStartByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

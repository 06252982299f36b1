package dom

import "io"

// TokenKind says what a Token is.
type TokenKind uint8

// Token kinds. A self-closing element is a TokenStart followed by its
// TokenEnd, as if it had been written out.
const (
	TokenStart    TokenKind = iota + 1 // a start tag: Name, Attrs
	TokenEnd                           // an end tag: Name
	TokenText                          // character data, decoded: Data
	tokenComment                       // a comment's body: Data
	tokenProcInst                      // a processing instruction: Name (the target), Data
	tokenDoctype                       // a <!DOCTYPE ...> directive's text: Data
)

// Token is one item of a document as Decoder.Next reports it. The Token
// and its byte slices belong to the decoder and alias the input or its
// scratch: they are valid until the next call, and a caller that keeps
// one copies it.
type Token struct {
	Kind  TokenKind
	Name  []byte
	Attrs []TokenAttr
	Data  []byte
}

// TokenAttr is one attribute of a start tag, its value decoded.
type TokenAttr struct {
	Name, Value []byte
}

// A Decoder reads one document held in memory a token at a time, and
// builds Nodes only where its caller asks (Content). It is the parser
// ParseBytes runs — the same tokenizer, language, normalisations and
// limits — so a caller that reads part of a document as tokens and part
// as trees gets exactly the nodes ParseBytes would have built there.
// Under the options, input that makes no node makes no token either:
// whitespace-only character data unless KeepWhitespace, comments and
// processing instructions unless kept, the XML declaration and
// directives other than DOCTYPE. Neighbouring character data (a CDATA
// section next to text, text around a dropped comment) arrives as
// several TokenText. The first error ends the document: every later
// call returns it.
type Decoder struct {
	p   parser
	tok Token // what Next returns
	// endOwed is set after a self-closing start tag: its end tag is the
	// next token, read from nowhere.
	endOwed bool
}

// NewDecoder returns a decoder for the document in src. src must not
// change while the decoder is in use; nothing the decoder builds
// keeps a reference into it.
func NewDecoder(src []byte, opts ParseOptions) *Decoder {
	d := &Decoder{p: parser{src: src, opts: opts}}
	d.p.checkSize()
	return d
}

// Next returns the next token, or io.EOF after the end of a well-formed
// document.
func (d *Decoder) Next() (*Token, error) {
	p := &d.p
	if d.endOwed {
		d.endOwed = false
		d.tok = Token{Kind: TokenEnd, Name: p.tag}
		return &d.tok, nil
	}
	for {
		kind, err := p.next()
		switch {
		case err != nil:
			return nil, err
		case kind == tokEOF:
			return nil, io.EOF
		case kind == tokNone:
			continue
		case kind == TokenStart:
			d.endOwed = p.empty
			d.tok = Token{Kind: kind, Name: p.tag, Attrs: p.attrs}
		case kind == TokenEnd:
			d.tok = Token{Kind: kind, Name: p.tag}
		case kind == tokenProcInst:
			d.tok = Token{Kind: kind, Name: p.tag, Data: p.data}
		default:
			d.tok = Token{Kind: kind, Data: p.data}
		}
		return &d.tok, nil
	}
}

// Content builds what follows up to the end tag of the innermost open
// element, which it reads — the content of the element whose start tag
// Next returned last — or, with no element open, up to the end of the
// document; ParseBytes is Content at the top of a document. It returns
// the nodes parent's Children would hold, each with Parent set to
// parent (which may be nil), in a slice valid until the next call. done,
// when not nil, is called for each node built as it completes, which is
// post-order: an element at its end tag, a text node when anything but
// more character data follows it.
func (d *Decoder) Content(parent *Node, done func(*Node)) ([]*Node, error) {
	if d.endOwed {
		d.endOwed = false
		return nil, nil
	}
	return d.p.content(parent, done)
}

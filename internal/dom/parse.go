package dom

import (
	"bytes"
	"fmt"
	"io"
)

// ParseOptions controls how documents are parsed into trees.
type ParseOptions struct {
	// KeepWhitespace preserves whitespace-only text nodes. The default
	// (false) drops them, which matches the paper's treatment of
	// "pretty printed" XML where indentation is not data.
	KeepWhitespace bool
	// KeepComments preserves comment nodes (default: true via Parse;
	// the zero value of ParseOptions drops comments to mirror the
	// change-relevant content model, so Parse sets this explicitly).
	KeepComments bool
	// KeepProcInsts preserves processing instructions other than the
	// <?xml ...?> declaration.
	KeepProcInsts bool
	// Limits bounds resource use on untrusted input; the zero value
	// imposes no limits.
	Limits ParseLimits
}

// DefaultParseOptions are the options used by Parse: whitespace-only
// text dropped, comments and processing instructions kept.
func DefaultParseOptions() ParseOptions {
	return ParseOptions{KeepComments: true, KeepProcInsts: true}
}

// Parse reads an XML document from r with DefaultParseOptions.
func Parse(r io.Reader) (*Node, error) {
	return ParseWithOptions(r, DefaultParseOptions())
}

// ParseString parses a document held in a string.
func ParseString(s string) (*Node, error) {
	return ParseBytes([]byte(s), DefaultParseOptions())
}

// ParseWithOptions reads an XML document from r into a Document tree.
// The returned node always has Type Document; its children are the
// top-level items of the document. The input is read to its end (or
// to one byte past Limits.maxBytes) before parsing starts; a caller
// that already holds the bytes calls ParseBytes and skips that copy.
func ParseWithOptions(r io.Reader, opts ParseOptions) (*Node, error) {
	src, err := readInput(r, opts.Limits.maxBytes)
	if err != nil {
		return nil, fmt.Errorf("dom: %w", err)
	}
	return ParseBytes(src, opts)
}

// ParseBytes parses the XML document held in src. The tree keeps no
// reference into src: every name and value is a copy, so the caller
// may reuse the slice as soon as ParseBytes returns.
//
// The accepted language is strict encoding/xml's, which this parser
// replaced and which the tests keep as its oracle: tags must nest and
// match, names follow the XML 1.0 grammar with at most one colon,
// attribute values are quoted and free of '<', only the five
// predefined entities and character references into the XML Char
// range are expanded, "]]>" may not appear in character data, "--"
// may not appear in a comment, and control bytes and invalid UTF-8 are
// refused. Line ends are normalised to "\n", CDATA sections merge into
// the text around them, and names stay in the prefix:local spelling
// they were written in, so serialized output always reparses to an
// Equal tree.
func ParseBytes(src []byte, opts ParseOptions) (*Node, error) {
	p := parser{src: src, opts: opts}
	p.checkSize()
	doc := NewDocument()
	kids, err := p.content(doc, nil)
	if err != nil {
		return nil, err
	}
	if len(kids) > 0 {
		doc.Children = p.children(len(kids))
		copy(doc.Children, kids)
	}
	return doc, nil
}

// checkSize refuses, as the parse's first error, an input longer than
// Limits.maxBytes.
func (p *parser) checkSize() {
	if max := p.opts.Limits.maxBytes; max > 0 && int64(len(p.src)) > max {
		p.err = &LimitError{What: "bytes", limit: max}
	}
}

// readInput reads r to its end, or to limit+1 bytes when limit is
// positive — one byte more than allowed, so ParseBytes can tell an
// input that fills the limit from one that exceeds it. A reader that
// knows its length (bytes.Reader, strings.Reader, bytes.Buffer), or
// reports a size hint as Len (the server's PUT body), gets a buffer of
// that size instead of a grown one; past it the buffer grows as usual.
// The buffer is sized only once the first byte has arrived: a hint may
// be a claim (a request's declared length), and input that never comes
// must not cost it.
func readInput(r io.Reader, limit int64) ([]byte, error) {
	n := 0
	if sized, ok := r.(interface{ Len() int }); ok {
		n = sized.Len()
		if limit > 0 && int64(n) > limit+1 {
			n = int(limit + 1)
		}
	}
	if limit > 0 {
		r = io.LimitReader(r, limit+1)
	}
	var buf bytes.Buffer
	if n > 0 {
		var first [1]byte
		if _, err := io.ReadFull(r, first[:]); err != nil {
			if err == io.EOF {
				err = nil
			}
			return nil, err
		}
		buf.Grow(n + bytes.MinRead)
		buf.WriteByte(first[0])
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

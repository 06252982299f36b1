// Package xid implements persistent node identification for XML
// versioning, following the change model of Marian et al. (VLDB 2001)
// that the paper builds on (its Section 4).
//
// Every node of the first version of a document is given a unique
// identifier, its XID, assigned in postfix (post-order) position. When
// a new version arrives, the diff's matching transfers XIDs from old
// nodes to their matches; unmatched (inserted) nodes draw fresh XIDs
// from a monotone allocator. An XID-map is the compact string attached
// to a subtree that lists the XIDs of its nodes in post-order, e.g.
// "(3-7)" or "(1-2;5;9-10)".
package xid

import (
	"fmt"
	"strconv"
	"strings"

	"xydiff/internal/dom"
)

// Assign gives every node of the document fresh XIDs in post-order,
// starting at 1, and returns the allocator positioned after the last
// assigned identifier. It is the initialization step for version 1 of
// a document.
func Assign(doc *dom.Node) *Allocator {
	next := int64(1)
	dom.WalkPost(doc, func(n *dom.Node) bool {
		n.XID = next
		next++
		return true
	})
	return &Allocator{next: next}
}

// Allocator hands out fresh, never-reused XIDs for inserted nodes.
type Allocator struct {
	next int64
}

// NewAllocator returns an allocator whose first XID is next.
func NewAllocator(next int64) *Allocator {
	if next < 1 {
		next = 1
	}
	return &Allocator{next: next}
}

// Next returns a fresh XID.
func (a *Allocator) Next() int64 {
	x := a.next
	a.next++
	return x
}

// Peek returns the next XID without consuming it.
func (a *Allocator) Peek() int64 { return a.next }

// Map is the post-order list of XIDs of a subtree, stored as sorted,
// non-overlapping ranges in subtree post-order. Because initial
// assignment is post-order, a never-changed subtree compresses to a
// single range such as "(3-7)"; after edits the list may fragment,
// e.g. "(3-5;9;12-14)".
type Map struct {
	ranges []span
}

type span struct{ lo, hi int64 }

// Of collects the XIDs of the subtree rooted at n in post-order.
func Of(n *dom.Node) Map {
	var m Map
	dom.WalkPost(n, func(x *dom.Node) bool {
		m.add(x.XID)
		return true
	})
	return m
}

// AppendOf appends the map of the subtree rooted at n — Of(n).String()
// — to b, the XIDs read off the nodes as it goes, so nothing is
// allocated beyond b's growth. A nil n has the empty map "()".
func AppendOf(b []byte, n *dom.Node) []byte {
	b = append(b, '(')
	if n != nil {
		var r span
		b, r = appendRanges(b, n, span{1, 0})
		b = appendSpan(b, r)
	}
	return append(b, ')')
}

// appendRanges extends r, the range being built, by the XIDs of n's
// subtree in post-order, writing each range it closes to b. The walk
// passes everything by value so that b can stay on its caller's stack.
// An empty r (hi < lo) is the start: it takes the first XID as it is.
func appendRanges(b []byte, n *dom.Node, r span) ([]byte, span) {
	for _, c := range n.Children {
		b, r = appendRanges(b, c, r)
	}
	switch x := n.XID; {
	case r.hi < r.lo:
		r = span{x, x}
	case x == r.hi+1:
		r.hi = x
	default:
		b = append(appendSpan(b, r), ';')
		r = span{x, x}
	}
	return b, r
}

// appendSpan writes one range of a map.
func appendSpan(b []byte, r span) []byte {
	b = strconv.AppendInt(b, r.lo, 10)
	if r.lo != r.hi {
		b = append(b, '-')
		b = strconv.AppendInt(b, r.hi, 10)
	}
	return b
}

// add adds one XID at the end of the map, merging it into the last
// range when contiguous.
func (m *Map) add(x int64) {
	if k := len(m.ranges); k > 0 && m.ranges[k-1].hi+1 == x {
		m.ranges[k-1].hi = x
		return
	}
	m.ranges = append(m.ranges, span{x, x})
}

// Len returns the number of XIDs in the map.
func (m Map) Len() int {
	n := 0
	for _, r := range m.ranges {
		n += int(r.hi - r.lo + 1)
	}
	return n
}

// Root returns the XID of the subtree root: the last XID in post-order.
// It returns 0 for an empty map.
func (m Map) Root() int64 {
	if len(m.ranges) == 0 {
		return 0
	}
	return m.ranges[len(m.ranges)-1].hi
}

// String renders the map in the paper's syntax: "(3-7)", "(3-5;9)".
// An empty map renders as "()".
func (m Map) String() string {
	b := []byte{'('}
	for i, r := range m.ranges {
		if i > 0 {
			b = append(b, ';')
		}
		b = appendSpan(b, r)
	}
	return string(append(b, ')'))
}

// ParseMap parses the "(3-5;9;12-14)" syntax produced by String.
func ParseMap(s string) (Map, error) {
	m, _, err := parseMap(s, nil, 0)
	return m, err
}

// Spans is storage that the maps of one decode share, so a map costs
// no allocation of its own. A map parsed into it stays valid when more
// are: its ranges are never written again.
type Spans struct{ buf []span }

// ParseMap is xid.ParseMap for a map held in bytes, such as an attribute
// value a tokenizer hands over, its ranges kept in s; b is not retained.
func (s *Spans) ParseMap(b []byte) (Map, error) {
	m, rest, err := parseMap(b, s.buf, 64)
	s.buf = rest
	return m, err
}

// parseMap parses s into ranges taken from the front of buf, or from a
// new buffer with room for chunk ranges more when buf is too short, and
// returns what is left of it.
func parseMap[T string | []byte](s T, buf []span, chunk int) (Map, []span, error) {
	var m Map
	if len(s) < 2 || s[0] != '(' || s[len(s)-1] != ')' {
		// Surrounding white space is all that may still make it a map.
		t := strings.TrimSpace(string(s))
		if len(t) < 2 || t[0] != '(' || t[len(t)-1] != ')' {
			return m, buf, fmt.Errorf("xid: map %q must be parenthesized", t)
		}
		s = T(t)
	}
	body := s[1 : len(s)-1]
	if len(body) == 0 {
		return m, buf, nil
	}
	parts := 1
	for i := 0; i < len(body); i++ {
		if body[i] == ';' {
			parts++
		}
	}
	if cap(buf) < parts {
		buf = make([]span, 0, parts+chunk)
	}
	m.ranges = buf[:0:parts]
	buf = buf[parts:cap(buf)]
	for start, i := 0, 0; i <= len(body); i++ {
		if i < len(body) && body[i] != ';' {
			continue
		}
		lo, hi, err := parseSpan(body[start:i])
		if err != nil {
			return Map{}, buf, err
		}
		start = i + 1
		if k := len(m.ranges); k > 0 && m.ranges[k-1].hi+1 == lo {
			// Normalize: merge ranges a caller wrote as "(1-2;3)".
			m.ranges[k-1].hi = hi
			continue
		}
		m.ranges = append(m.ranges, span{lo, hi})
	}
	return m, buf, nil
}

func parseSpan[T string | []byte](s T) (lo, hi int64, err error) {
	dash := 0
	for dash < len(s) && s[dash] != '-' {
		dash++
	}
	if dash < len(s) {
		lo, err = parseInt(s[:dash])
		if err != nil {
			return 0, 0, fmt.Errorf("xid: bad range %q: %w", s, err)
		}
		hi, err = parseInt(s[dash+1:])
		if err != nil {
			return 0, 0, fmt.Errorf("xid: bad range %q: %w", s, err)
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("xid: inverted range %q", s)
		}
		return lo, hi, nil
	}
	lo, err = parseInt(s)
	if err != nil {
		return 0, 0, fmt.Errorf("xid: bad id %q: %w", s, err)
	}
	return lo, lo, nil
}

// parseInt is strconv.ParseInt(string(s), 10, 64), its loop written
// out for the plain digits String writes.
func parseInt[T string | []byte](s T) (int64, error) {
	if len(s) == 0 || len(s) > 18 {
		return strconv.ParseInt(string(s), 10, 64)
	}
	var v int64
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return strconv.ParseInt(string(s), 10, 64)
		}
		v = v*10 + int64(s[i]-'0')
	}
	return v, nil
}

// ApplyTo writes the map's XIDs onto the subtree rooted at n in
// post-order. It returns an error when the node count differs from the
// map length.
func (m Map) ApplyTo(n *dom.Node) error {
	c := m.Stamper()
	dom.WalkPost(n, func(x *dom.Node) bool {
		c.Stamp(x)
		return true
	})
	return c.Done(n)
}

// A Stamper writes a map's XIDs onto nodes one at a time, in the order
// it is handed them — post-order, for the subtree the map describes —
// without expanding the map.
type Stamper struct {
	ranges []span
	next   int64 // the XID the next node gets, in ranges[0]
	size   int   // the map's length
	extra  bool  // a node arrived after the last XID was given
}

// Stamper returns a Stamper positioned at the map's first XID.
func (m Map) Stamper() Stamper {
	s := Stamper{ranges: m.ranges, size: m.Len()}
	if len(m.ranges) > 0 {
		s.next = m.ranges[0].lo
	}
	return s
}

// Stamp gives n the next XID. Nodes beyond the map's length are left
// alone and make Done fail.
func (s *Stamper) Stamp(n *dom.Node) {
	if len(s.ranges) == 0 {
		s.extra = true
		return
	}
	n.XID = s.next
	s.advance()
}

// advance moves s past the XID it would give next.
func (s *Stamper) advance() {
	if s.next < s.ranges[0].hi {
		s.next++
		return
	}
	if s.ranges = s.ranges[1:]; len(s.ranges) > 0 {
		s.next = s.ranges[0].lo
	}
}

// Done reports whether exactly the map's XIDs were handed out; root is
// the subtree they went to, for the error message.
func (s *Stamper) Done(root *dom.Node) error {
	if s.extra || len(s.ranges) > 0 {
		return fmt.Errorf("xid: map has %d ids but subtree has %d nodes", s.size, root.Size())
	}
	return nil
}

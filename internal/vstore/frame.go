package vstore

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// A frame is a tree frozen into one byte slice, which gives the tree
// back with one decoding pass over it and a few allocations, not an XML
// parse. It is the one binary tree codec of the store: a keyframe (an
// evicted latest version), a document's version 1 and each stored delta
// with its insert and delete subtrees are held as frames. The frame is
//
//	frame  = header text stream
//	header = uvarint(len(text)) uvarint(nodes) uvarint(attrs)
//	         uvarint(names) uvarint(len(name))…
//	text   = the name table's strings, then every value, each once,
//	         in the order stream consumes them
//	stream = a tree's nodes, or a delta (below)
//	tree   = one entry per node, in pre-order:
//	         tag [name] [len(Value)]
//	         [attrs (name len(value))…] [children] varint(XID)
//
// where tag is the node type in its low three bits and one bit for each
// optional field the node has — a Document's Value, its DOCTYPE, under
// a bit of its own, any other node's under tagValue; name is an index
// into the name table and
// every other field a uvarint. A field the tag announces is never empty
// or zero. The tree comes back exactly as it went in: every field,
// attribute order, adjacent and whitespace-only texts, and XIDs.
//
// A stored delta's stream is an op table, the delta.Op struct encoded
// field for field, whose insert and delete subtrees are trees of the
// same frame, sharing its name table, text and counts:
//
//	delta  = uvarint(ops) varint(NextXID)
//	         uvarint(insert nodes) uvarint(insert attrs) op…
//	op     = kind varint(XID) [varint(Parent)] [uvarint(Pos)]
//	         [varint(ToParent)] [uvarint(ToPos)]
//	         [len(Name)] [len(Old)] [len(New)] [tree]
//
// where the insert counts are the inserts' subtrees' share of the
// header's counts (the deletes' take the rest), so that a read walk's
// step, which builds one side only, cuts exact slabs for it; kind is
// the op's delta.Kind, every len a uvarint whose bytes are the text's,
// and tree the Subtree. An op holds the fields its kind uses
// (opFields), so the kind says which are there. The subtree carries its
// XIDs, which on the wire are the op's XID map.
const (
	tagType     = 0x07
	tagName     = 0x08
	tagValue    = 0x10
	tagDoctype  = 0x20
	tagAttrs    = 0x40
	tagChildren = 0x80
)

// A frameError is what every frame thaw cannot take back reports: what
// did not hold, and where.
type frameError struct {
	what    string
	at, len int
}

func (e *frameError) Error() string {
	return fmt.Sprintf("vstore: bad frame: %s at byte %d of %d", e.what, e.at, e.len)
}

// freeze returns doc as a frame, or false for a node type the tag cannot
// carry. Only the frame is allocated: the freezer's buffers are reused.
func freeze(doc *dom.Node) ([]byte, bool) {
	f := freezers.Get().(*freezer)
	defer f.release()
	if !f.node(doc) {
		return nil, false
	}
	return f.frame(), true
}

// The fields of an Op each kind uses, bits of opFields.
const (
	fieldParent = 1 << iota
	fieldPos
	fieldToParent
	fieldToPos
	fieldName
	fieldOld
	fieldNew
	fieldSubtree
)

// opFields is which of an Op's fields each kind uses: those a frame
// holds, in the order of the bits.
var opFields = [...]uint8{
	delta.KindInsert:     fieldParent | fieldPos | fieldSubtree,
	delta.KindDelete:     fieldParent | fieldPos | fieldSubtree,
	delta.KindUpdate:     fieldOld | fieldNew,
	delta.KindMove:       fieldParent | fieldPos | fieldToParent | fieldToPos,
	delta.KindInsertAttr: fieldName | fieldNew,
	delta.KindDeleteAttr: fieldName | fieldOld,
	delta.KindUpdateAttr: fieldName | fieldOld | fieldNew,
}

// freezeDelta returns d as a frame, or false when it cannot be one: an
// op kind the frame does not know, a negative position, or a subtree
// that is missing, of a node type the tag cannot carry, or rooted at a
// node without its op's XID. Only the frame is allocated.
func freezeDelta(d *delta.Delta) ([]byte, bool) {
	f := freezers.Get().(*freezer)
	defer f.release()
	f.uvarint(len(d.Ops))
	f.varint(d.NextXID)
	at, insertNodes, insertAttrs := len(f.stream), 0, 0
	for i := range d.Ops {
		o := &d.Ops[i]
		if int(o.Kind) >= len(opFields) || o.Pos < 0 || o.ToPos < 0 {
			return nil, false
		}
		fields := opFields[o.Kind]
		f.stream = append(f.stream, byte(o.Kind))
		f.varint(o.XID)
		if fields&fieldParent != 0 {
			f.varint(o.Parent)
		}
		if fields&fieldPos != 0 {
			f.uvarint(int(o.Pos))
		}
		if fields&fieldToParent != 0 {
			f.varint(o.ToParent)
		}
		if fields&fieldToPos != 0 {
			f.uvarint(int(o.ToPos))
		}
		if fields&fieldName != 0 {
			f.value(o.Name)
		}
		if fields&fieldOld != 0 {
			f.value(o.Old)
		}
		if fields&fieldNew != 0 {
			f.value(o.New)
		}
		nodes, attrs := f.nodes, f.attrs
		if fields&fieldSubtree != 0 && (o.Subtree == nil || o.Subtree.XID != o.XID || !f.node(o.Subtree)) {
			return nil, false
		}
		if o.Kind == delta.KindInsert {
			insertNodes += f.nodes - nodes
			insertAttrs += f.attrs - attrs
		}
	}
	var counts [2 * binary.MaxVarintLen64]byte
	c := binary.AppendUvarint(counts[:0], uint64(insertNodes))
	f.stream = slices.Insert(f.stream, at, binary.AppendUvarint(c, uint64(insertAttrs))...)
	return f.frame(), true
}

// freezer is one frame's pass: the stream and the values written so
// far, and the name table with each name's index.
type freezer struct {
	stream, text []byte
	table        []string
	names        map[string]int
	nodes, attrs int
}

var freezers = sync.Pool{New: func() any { return &freezer{names: make(map[string]int)} }}

// release empties f, keeping its buffers, and returns it to the pool.
func (f *freezer) release() {
	clear(f.table) // the names belong to the frozen tree
	clear(f.names)
	f.stream, f.text, f.table = f.stream[:0], f.text[:0], f.table[:0]
	f.nodes, f.attrs = 0, 0
	freezers.Put(f)
}

// frame returns the frame of what f has written, in one allocation of
// its length.
func (f *freezer) frame() []byte {
	namesLen, lens := 0, 0
	for _, name := range f.table {
		namesLen += len(name)
		lens += uvarintLen(len(name))
	}
	textLen := namesLen + len(f.text)
	counts := [...]int{textLen, f.nodes, f.attrs, len(f.table)}
	size := lens + textLen + len(f.stream)
	for _, v := range counts {
		size += uvarintLen(v)
	}
	b := make([]byte, 0, size)
	for _, v := range counts {
		b = binary.AppendUvarint(b, uint64(v))
	}
	for _, name := range f.table {
		b = binary.AppendUvarint(b, uint64(len(name)))
	}
	for _, name := range f.table {
		b = append(b, name...)
	}
	b = append(b, f.text...)
	return append(b, f.stream...)
}

// node writes the tree rooted at n, or returns false for a node type
// the tag cannot carry.
func (f *freezer) node(n *dom.Node) bool {
	if n.Type > dom.ProcInst {
		return false
	}
	at := len(f.stream)
	tag := byte(n.Type)
	f.stream = append(f.stream, 0)
	if n.Name != "" {
		tag |= tagName
		f.name(n.Name)
	}
	if n.Value != "" {
		tag |= valueTag(n.Type)
		f.value(n.Value)
	}
	if len(n.Attrs) > 0 {
		tag |= tagAttrs
		f.uvarint(len(n.Attrs))
		for _, a := range n.Attrs {
			f.name(a.Name)
			f.value(a.Value)
		}
		f.attrs += len(n.Attrs)
	}
	if len(n.Children) > 0 {
		tag |= tagChildren
		f.uvarint(len(n.Children))
	}
	f.varint(n.XID)
	f.stream[at] = tag
	f.nodes++
	for _, c := range n.Children {
		if !f.node(c) {
			return false
		}
	}
	return true
}

// valueTag is the tag bit that announces the Value of a node of type
// typ: a Document's is its DOCTYPE.
func valueTag(typ dom.NodeType) byte {
	if typ == dom.Document {
		return tagDoctype
	}
	return tagValue
}

func (f *freezer) uvarint(v int) { f.stream = binary.AppendUvarint(f.stream, uint64(v)) }

func (f *freezer) varint(v int64) { f.stream = binary.AppendVarint(f.stream, v) }

func (f *freezer) value(s string) {
	f.uvarint(len(s))
	f.text = append(f.text, s...)
}

func (f *freezer) name(s string) {
	f.uvarint(f.index(s))
}

// index returns s's index in the name table, adding it if need be.
func (f *freezer) index(s string) int {
	if i, ok := f.names[s]; ok {
		return i
	}
	f.names[s] = len(f.table)
	f.table = append(f.table, s)
	return len(f.table) - 1
}

// uvarintLen is the length of v as a uvarint.
func uvarintLen(v int) int { return (bits.Len64(uint64(v)|1) + 6) / 7 }

// thaw rebuilds the tree a frame holds. It checks the whole frame first
// to last — every varint, index, length and count, with nothing left
// over — and returns a *frameError, never a partial tree, when any of it
// does not hold. The tree's nodes, child slices and attributes are one
// allocation each, and its strings share one copy of the frame's text.
func thaw(frame []byte) (*dom.Node, error) {
	var t thawer
	t.open(frame)
	if t.err == nil && t.left.nodes == 0 {
		t.fail("no node")
	}
	t.slabs(t.left.nodes, t.left.attrs)
	doc := t.tree(true)
	if err := t.close(); err != nil {
		return nil, err
	}
	return doc, nil
}

// thawDelta rebuilds the delta a frame holds, checking all of it as thaw
// does: a *frameError, never a partial delta, when any of it does not
// hold. Its ops are one slab, filled in place; each insert and delete
// gets its subtree with its XIDs on it. The subtrees' nodes, child
// slices and attributes are one allocation each, shared by all of them,
// and every string shares one copy of the frame's text.
func thawDelta(frame []byte) (*delta.Delta, error) {
	var t thawer
	t.open(frame)
	t.slabs(t.left.nodes, t.left.attrs)
	d := t.ops(noDetach)
	if err := t.close(); err != nil {
		return nil, err
	}
	return d, nil
}

// noDetach is a kind no op has: thawDelta detaches no subtree.
const noDetach = delta.Kind(len(opFields))

// thawStep rebuilds the delta a frame holds for one step of a read
// walk, forward or, when backward, through its inverse, checking all of
// it as thawDelta does. The subtrees the step attaches — the inserts'
// going forward, the deletes' going backward — are built, in slabs of
// exactly their size (the frame counts the inserts' share). Those it
// detaches, which it only compares with the document and drops, are
// read and left in the frame, nil in the delta: t's differs compares
// them there. Text is copied from the first value built on, so a
// canonical delta's deletes, which come first, leave theirs uncopied
// going forward.
func (t *thawer) thawStep(frame []byte, backward bool) (*delta.Delta, error) {
	detach := delta.KindDelete
	if backward {
		detach = delta.KindInsert
	}
	t.open(frame)
	d := t.ops(detach)
	if t.err == nil && !t.copied && len(t.spans) > 0 {
		t.take() // the names, for differs
	}
	if err := t.close(); err != nil {
		return nil, err
	}
	return d, nil
}

// thawer is one pass over a frame's stream: what the header says, what
// the counts leave for the trees not read yet, the slabs the trees'
// nodes, child slices and attributes are cut from, and, once take has
// copied it, the name table and the text not yet taken.
type thawer struct {
	frameReader
	// Where the name lengths and the text start in the frame, where
	// the text ends, and the names' count and length.
	lens, textAt, textEnd int
	nameCount, namesLen   int
	left                  frameCounts
	// inserts is the inserts' share of a delta frame's counts, and
	// insertsRead what the insert trees read so far took.
	inserts, insertsRead frameCounts
	trees                int // the trees read so far
	root                 int64
	stack                []thawSlot

	// building is whether what is read now is built, or only read and
	// checked; copied whether take has run.
	building, copied bool
	names            []string
	text             string
	nodes            []dom.Node
	kids             []*dom.Node
	attrs            []dom.Attr

	// spans are the subtrees thawStep left in the frame, in op order,
	// and next the one differs expects to be asked about next.
	spans []frameSpan
	next  int
}

// frameCounts counts the nodes, child slots, attributes and value bytes
// of trees.
type frameCounts struct{ nodes, kids, attrs, text int }

// thawSlot is a node whose children are still being read (nil when it
// is not built), how many of them have been and how many it has.
type thawSlot struct {
	n          *dom.Node
	next, kids int
}

// open reads and checks a frame's header and leaves t, a zero thawer, at
// the start of the stream, with the counts left to take. Each name
// length takes a byte at least; so does each node's tag and XID, and
// each attribute's name and value length.
func (t *thawer) open(frame []byte) {
	t.frameReader = frameReader{b: frame}
	textLen := t.uvarint(len(frame))
	nodeCount := t.uvarint(len(frame))
	attrCount := t.uvarint(len(frame))
	nameCount := t.uvarint(len(frame))
	if t.err == nil && nameCount > len(frame)-t.off {
		t.fail("name count")
	}
	t.lens = t.off
	namesLen := 0
	for range nameCount {
		namesLen += t.uvarint(textLen - namesLen)
	}
	if t.err == nil && textLen > len(frame)-t.off {
		t.fail("text length")
	}
	if t.err != nil {
		return
	}
	t.textAt, t.textEnd = t.off, t.off+textLen
	t.off = t.textEnd
	if rest := len(frame) - t.off; nodeCount > rest/2 || attrCount > rest/2 {
		t.fail("node or attribute count")
		return
	}
	t.nameCount, t.namesLen = nameCount, namesLen
	t.left = frameCounts{nodes: nodeCount, kids: nodeCount, attrs: attrCount, text: textLen - namesLen}
	if nodeCount > 0 {
		t.stack = make([]thawSlot, 0, 16)
	}
}

// slabs cuts the slabs for trees of nodes nodes and attrs attributes: a
// child slot for each node, of which each tree's root leaves one unused.
func (t *thawer) slabs(nodes, attrs int) {
	if t.err != nil {
		return
	}
	if nodes > 0 {
		t.nodes = make([]dom.Node, nodes)
		t.kids = make([]*dom.Node, nodes)
	}
	if attrs > 0 {
		t.attrs = make([]dom.Attr, attrs)
	}
}

// take copies what building strings needs of the frame's text: the
// names, and the values from the next one to take on.
func (t *thawer) take() {
	from := t.textOff()
	var b strings.Builder
	b.Grow(t.namesLen + t.textEnd - from)
	b.Write(t.b[t.textAt : t.textAt+t.namesLen])
	b.Write(t.b[from:t.textEnd])
	text := b.String()
	lens := frameReader{b: t.b, off: t.lens} // read and checked by open
	t.names = make([]string, t.nameCount)
	for i := range t.names {
		n := lens.uvarint(len(text))
		t.names[i], text = text[:n], text[n:]
	}
	t.text, t.copied = text, true
}

// close checks that the stream is read to its end, that the trees took
// every node, child slot, attribute and byte of text the counts
// announced — the roots take no child slot — and that the insert trees
// took their share.
func (t *thawer) close() error {
	if t.err == nil && t.off != len(t.b) {
		t.fail("trailing bytes")
	}
	if t.err == nil && (t.left.nodes != 0 || t.left.kids != t.trees || t.left.attrs != 0 || t.left.text != 0) {
		t.fail("counts that do not add up")
	}
	if t.err == nil && t.insertsRead != t.inserts {
		t.fail("insert counts that do not add up")
	}
	return t.err
}

// op reads an op's kind and the fields its kind uses, all but its
// subtree, into o, and reports whether the frame holds so far.
func (t *thawer) op(o *delta.Op) bool {
	t.building = true
	if o.Kind = delta.Kind(t.tag()); int(o.Kind) >= len(opFields) {
		t.fail("op kind")
	}
	if t.err != nil {
		return false
	}
	fields := opFields[o.Kind]
	o.XID = t.varint()
	if fields&fieldParent != 0 {
		o.Parent = t.varint()
	}
	if fields&fieldPos != 0 {
		o.Pos = int32(t.uvarint(math.MaxInt32))
	}
	if fields&fieldToParent != 0 {
		o.ToParent = t.varint()
	}
	if fields&fieldToPos != 0 {
		o.ToPos = int32(t.uvarint(math.MaxInt32))
	}
	if fields&fieldName != 0 {
		o.Name = t.value(0)
	}
	if fields&fieldOld != 0 {
		o.Old = t.value(0)
	}
	if fields&fieldNew != 0 {
		o.New = t.value(0)
	}
	return true
}

// ops builds the delta whose op table starts at t's position, each
// insert and delete with its subtree, but for the ops of kind detach,
// whose subtrees it reads and leaves in the frame (spans). The slabs
// are t's own when detach is noDetach; otherwise ops cuts them for the
// subtrees it builds.
func (t *thawer) ops(detach delta.Kind) *delta.Delta {
	// An op takes two bytes at least: its kind and its XID.
	count := t.uvarint((len(t.b) - t.off) / 2)
	d := &delta.Delta{NextXID: t.varint(), Ops: make([]delta.Op, count)}
	t.inserts.nodes = t.uvarint(t.left.nodes)
	t.inserts.attrs = t.uvarint(t.left.attrs)
	switch detach {
	case delta.KindDelete:
		t.slabs(t.inserts.nodes, t.inserts.attrs)
	case delta.KindInsert:
		t.slabs(t.left.nodes-t.inserts.nodes, t.left.attrs-t.inserts.attrs)
	}
	for i := range d.Ops {
		o := &d.Ops[i]
		if !t.op(o) {
			break
		}
		if opFields[o.Kind]&fieldSubtree == 0 {
			continue
		}
		before := t.left
		if o.Kind != detach {
			o.Subtree = t.tree(true)
		} else {
			if t.spans == nil {
				// Room for half the ops left: a delta's deletes and
				// inserts are each under half its ops, as a rule.
				t.spans = make([]frameSpan, 0, (count-i)/2+8)
			}
			t.spans = append(t.spans, frameSpan{op: int32(i), off: int32(t.off), text: int32(t.textOff())})
			t.tree(false)
		}
		t.checkRoot(o.XID)
		if o.Kind == delta.KindInsert {
			t.insertsRead.nodes += before.nodes - t.left.nodes
			t.insertsRead.attrs += before.attrs - t.left.attrs
		}
	}
	return d
}

// textOff is where in the frame the next value to take starts.
func (t *thawer) textOff() int { return t.textEnd - t.left.text }

// checkRoot fails unless the tree just read is rooted at xid, its op's
// XID.
func (t *thawer) checkRoot(xid int64) {
	if t.err == nil && t.root != xid {
		t.fail("a subtree without its op's XID")
	}
}

// tree reads one tree, taking what it holds from what t has left, and
// when build is set builds it from the slabs. It returns the root, or
// nil when the frame is bad or the tree is not built; t.root is the
// root's XID.
func (t *thawer) tree(build bool) *dom.Node {
	var root *dom.Node
	t.building = build
	stack := t.stack[:0]
	t.trees++
	for first := true; t.err == nil; first = false {
		if t.left.nodes == 0 || build && len(t.nodes) == 0 {
			t.fail("more nodes than counted")
			break
		}
		t.left.nodes--
		var n *dom.Node
		if build {
			n = &t.nodes[0]
			t.nodes = t.nodes[1:]
		}
		if first {
			root = n
		} else {
			top := &stack[len(stack)-1]
			if n != nil {
				top.n.Children[top.next] = n
				n.Parent = top.n
			}
			if top.next++; top.next == top.kids {
				stack = stack[:len(stack)-1]
			}
		}
		tag := t.tag()
		typ := dom.NodeType(tag & tagType)
		if typ > dom.ProcInst {
			t.fail("node type")
		}
		var name, value string
		if tag&tagName != 0 {
			name = t.name()
		}
		if vt := valueTag(typ); tag&(tagValue|tagDoctype) == vt {
			value = t.value(1)
		} else if tag&(tagValue|tagDoctype) != 0 {
			t.fail("a value its node type does not take")
		}
		var attrs []dom.Attr
		if tag&tagAttrs != 0 {
			k := t.count(t.left.attrs, len(t.attrs), build)
			t.left.attrs -= k
			if build {
				attrs, t.attrs = t.attrs[:k:k], t.attrs[k:]
			}
			for j := range k {
				a := dom.Attr{Name: t.name(), Value: t.value(0)}
				if build {
					attrs[j] = a
				}
			}
		}
		kids := 0
		if tag&tagChildren != 0 {
			kids = t.count(t.left.kids, len(t.kids), build)
			t.left.kids -= kids
		}
		xid := t.varint()
		if first {
			t.root = xid
		}
		if build {
			n.Type, n.Name, n.Value, n.Attrs, n.XID = typ, name, value, attrs, xid
			if kids > 0 {
				n.Children, t.kids = t.kids[:kids:kids], t.kids[kids:]
			}
		}
		if kids > 0 {
			stack = append(stack, thawSlot{n: n, kids: kids})
		}
		if len(stack) == 0 {
			break
		}
	}
	t.stack = stack
	if t.err != nil {
		return nil
	}
	return root
}

// name reads an index into the name table.
func (t *thawer) name() string {
	i := t.uvarint(t.nameCount - 1)
	if t.err != nil || !t.building {
		return ""
	}
	if !t.copied {
		t.take()
	}
	return t.names[i]
}

// value reads a length of at least min and takes that many bytes of text.
func (t *thawer) value(min int) string {
	n := t.uvarint(t.left.text)
	if n < min {
		t.fail("empty value")
	}
	if t.err != nil {
		return ""
	}
	if t.building && !t.copied {
		t.take()
	}
	t.left.text -= n
	if !t.copied {
		return ""
	}
	s := t.text[:n]
	t.text = t.text[n:]
	if !t.building {
		return ""
	}
	return s
}

// count reads a count of at least one and at most left, and when build
// is set at most slab too: what the slab being cut from holds.
func (t *thawer) count(left, slab int, build bool) int {
	if build {
		left = min(left, slab)
	}
	if k := t.uvarint(left); k > 0 {
		return k
	}
	t.fail("zero or out-of-range count")
	return 0
}

// frameSpan is where the subtree of op op lies in a frame: its tree at
// off in the stream, its values from text on, offsets into the frame.
type frameSpan struct{ op, off, text int32 }

// frameAttr is an attribute of a tree held in a frame, its value in
// place.
type frameAttr struct {
	name  string
	value []byte
}

// differs is the check a step makes of n, the subtree op i detaches,
// against the subtree the frame holds for op i (Replay.Step): "" when
// they are Equal, and otherwise dom.Diagnose's account of the first
// difference, which thaws the frame whole to find it. A step asks about
// its ops in order, so the span after the last one asked about is the
// one it looks at first.
func (t *thawer) differs(i int, n *dom.Node) string {
	k, ok := t.next, t.next < len(t.spans) && int(t.spans[t.next].op) == i
	if !ok {
		k, ok = slices.BinarySearchFunc(t.spans, i, func(sp frameSpan, i int) int { return cmp.Compare(int(sp.op), i) })
	}
	if ok {
		t.next = k + 1
		if t.equal(t.spans[k], n) {
			return ""
		}
	}
	d, err := thawDelta(t.b)
	if err != nil {
		return err.Error()
	}
	if diag := dom.Diagnose(n, d.Ops[i].Subtree); diag != "" {
		return diag
	}
	return "no recorded subtree to compare"
}

// equal reports whether n is Equal to the tree at sp, read in place,
// with nothing built: node for node in pre-order, the same type, name,
// value (but a Document's), attributes as dom.Equal compares them and
// number of children.
func (t *thawer) equal(sp frameSpan, n *dom.Node) bool {
	r := frameReader{b: t.b, off: int(sp.off)}
	text := int(sp.text)
	stack := t.stack[:0]
	defer func() { t.stack = stack[:0] }()
	var buf [8]frameAttr
	for r.err == nil {
		tag := r.tag()
		name := ""
		if tag&tagName != 0 {
			name = t.nameAt(&r)
		}
		var v []byte
		if tag&(tagValue|tagDoctype) != 0 {
			v, text = t.valueAt(&r, text)
		}
		typ := dom.NodeType(tag & tagType)
		if n.Type != typ || n.Name != name || typ != dom.Document && n.Value != string(v) {
			return false
		}
		k := 0
		if tag&tagAttrs != 0 {
			k = r.uvarint(len(t.b))
		}
		if len(n.Attrs) != k {
			return false
		}
		attrs := buf[:0]
		for range k {
			a := frameAttr{name: t.nameAt(&r)}
			a.value, text = t.valueAt(&r, text)
			attrs = append(attrs, a)
		}
		kids := 0
		if tag&tagChildren != 0 {
			kids = r.uvarint(len(t.b))
		}
		r.varint()
		if r.err != nil || len(n.Children) != kids || !sameAttrs(n, attrs) {
			return false
		}
		if kids > 0 {
			stack = append(stack, thawSlot{n: n, next: 1, kids: kids})
			n = n.Children[0]
			continue
		}
		for len(stack) > 0 && stack[len(stack)-1].next == stack[len(stack)-1].kids {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			return true
		}
		top := &stack[len(stack)-1]
		n = top.n.Children[top.next]
		top.next++
	}
	return false
}

// nameAt reads an index into the name table off r.
func (t *thawer) nameAt(r *frameReader) string {
	i := r.uvarint(len(t.names) - 1)
	if r.err != nil {
		return ""
	}
	return t.names[i]
}

// valueAt reads a value's length off r and returns the value, the
// frame's bytes at text, and where the next value starts.
func (t *thawer) valueAt(r *frameReader, text int) ([]byte, int) {
	k := r.uvarint(t.textEnd - text)
	return t.b[text : text+k], text + k
}

// sameAttrs compares n's attributes with a frame node's as dom.Equal
// compares two nodes' (their numbers are equal): sorted by name, pair by
// pair. Both sides are sorted as Node.SortedAttrs sorts, so a node
// thawed from the frame, whose attributes are in the frame's order,
// would sort to the same order, equal names included.
func sameAttrs(n *dom.Node, attrs []frameAttr) bool {
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1].name > attrs[i].name {
			slices.SortFunc(attrs, func(a, b frameAttr) int { return strings.Compare(a.name, b.name) })
			break
		}
	}
	for i, a := range n.SortedAttrs() {
		if a.Name != attrs[i].name || a.Value != string(attrs[i].value) {
			return false
		}
	}
	return true
}

// frameReader reads uvarints off a frame. Its first error sticks: every
// read after it returns zero.
type frameReader struct {
	b   []byte
	off int
	err error
}

// fail records what went wrong, unless an earlier failure is recorded,
// and moves to the end of the frame, where no read finds a byte.
func (r *frameReader) fail(what string) {
	if r.err == nil {
		r.err = &frameError{what: what, at: r.off, len: len(r.b)}
	}
	r.off = len(r.b)
}

func (r *frameReader) tag() byte {
	if r.err != nil || r.off == len(r.b) {
		r.fail("truncated")
		return 0
	}
	r.off++
	return r.b[r.off-1]
}

// uvarint reads a uvarint of at most max; a negative max admits nothing.
// Most are one byte, which it reads first.
func (r *frameReader) uvarint(max int) int {
	if off := r.off; off < len(r.b) {
		if b := r.b[off]; b < 0x80 && int(b) <= max {
			r.off = off + 1
			return int(b)
		}
	}
	return r.longUvarint(max)
}

// longUvarint is uvarint for the rest.
func (r *frameReader) longUvarint(max int) int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || max < 0 || v > uint64(max) {
		r.fail("truncated or out-of-range varint")
		return 0
	}
	r.off += n
	return int(v)
}

// varint reads a varint. Most are one byte, which it reads first.
func (r *frameReader) varint() int64 {
	if off := r.off; off < len(r.b) {
		if b := r.b[off]; b < 0x80 {
			r.off = off + 1
			return int64(b>>1) ^ -int64(b&1)
		}
	}
	return r.longVarint()
}

// longVarint is varint for the rest.
func (r *frameReader) longVarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail("truncated varint")
		return 0
	}
	r.off += n
	return v
}

package xid

// Table maps XIDs to values — a node, or a node's index in a flat tree —
// for the walks that look nodes up by identifier: a delta applied or
// replayed, two versions composed. A lookup is an array read. XIDs are
// cut into pages of pageSize slots and a page is allocated on its first
// write, so memory follows the XIDs in use rather than the largest one.
//
// The pages cover XIDs 1..limit, where limit grows with the writes the
// table has taken or been told to expect (spread XIDs per write, at
// least minSpan). Every other XID — zero, a negative one, one far
// beyond what the document's size explains — goes to an overflow map.
// A corrupt delta naming such an XID gets the answer a map would give,
// and cannot make the table allocate more than a constant per write.
// A caller that knows how many entries are coming (a tree's node
// count) says so with Expect, so that the largest XIDs, written first
// by a walk of a post-order-numbered tree, are in range too.
//
// The zero value of V means "absent": a Table never stores it, and Get
// returns it for an XID with no entry. The zero Table is empty and
// ready to use.
type Table[V comparable] struct {
	dir []*[pageSize]V
	// writes counts the writes taken, or those Expect announced when
	// more.
	writes   int64
	overflow map[int64]V
	spare    [][pageSize]V // pages allocated in bulk, not yet handed out
	pages    int           // pages handed out
}

const (
	pageBits = 5
	pageSize = 1 << pageBits
	// spread is how many XIDs of range the pages may cover per write:
	// a young document's XIDs run 1..nodes, and an old one's spread as
	// inserts draw fresh identifiers.
	spread = 64
	// minSpan is the range the pages cover before any write.
	minSpan = 1024
)

// Get returns the value stored for x, or the zero value.
func (t *Table[V]) Get(x int64) V {
	if p := uint64(x) >> pageBits; p < uint64(len(t.dir)) {
		if pg := t.dir[p]; pg != nil {
			if v := pg[x&(pageSize-1)]; v != *new(V) {
				return v
			}
		}
	}
	if len(t.overflow) > 0 {
		return t.overflow[x]
	}
	return *new(V)
}

// Expect tells the table that about n writes are coming, so the range
// the pages cover is the one n writes earn from the first write on.
func (t *Table[V]) Expect(n int) {
	t.writes = max(t.writes, int64(n))
}

// Set stores v for x, replacing any earlier value.
func (t *Table[V]) Set(x int64, v V) {
	t.writes++
	if x < 1 || x > spread*t.writes+minSpan {
		if t.overflow == nil {
			t.overflow = make(map[int64]V)
		}
		t.overflow[x] = v
		return
	}
	p := int(x >> pageBits)
	if p >= len(t.dir) {
		t.growDir(p)
	}
	pg := t.dir[p]
	if pg == nil {
		pg = t.page()
		t.dir[p] = pg
	}
	pg[x&(pageSize-1)] = v
	if len(t.overflow) > 0 {
		// x may have gone to the overflow while the range was shorter.
		delete(t.overflow, x)
	}
}

// Delete removes x's entry, if any.
func (t *Table[V]) Delete(x int64) {
	if p := uint64(x) >> pageBits; p < uint64(len(t.dir)) && t.dir[p] != nil {
		t.dir[p][x&(pageSize-1)] = *new(V)
	}
	if len(t.overflow) > 0 {
		delete(t.overflow, x)
	}
}

// growDir extends the directory to hold page p, at least doubling it.
func (t *Table[V]) growDir(p int) {
	n := max(p+1, 2*len(t.dir), minSpan/pageSize)
	dir := make([]*[pageSize]V, n)
	copy(dir, t.dir)
	t.dir = dir
}

// page hands out an empty page. Pages are allocated in batches as
// large as the pages handed out so far (8 to 256), so the batches cost
// a logarithmic number of allocations and at most double the pages.
func (t *Table[V]) page() *[pageSize]V {
	if len(t.spare) == 0 {
		t.spare = make([][pageSize]V, min(max(t.pages, 8), 256))
	}
	pg := &t.spare[0]
	t.spare = t.spare[1:]
	t.pages++
	return pg
}

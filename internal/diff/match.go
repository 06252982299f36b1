package diff

import (
	"container/heap"
	"math"

	"xydiff/internal/dom"
	"xydiff/internal/dtd"
	"xydiff/internal/lcs"
)

// matcher holds the matching state between the old and new trees.
type matcher struct {
	old, new *tree
	opts     Options

	oldToNew []int // old post-order index -> new index, -1 unmatched
	newToOld []int

	// excluded marks old/new nodes that carry an ID attribute whose
	// value found no counterpart: the paper forbids matching them by
	// any other means.
	oldExcluded []bool
	newExcluded []bool

	// bySig indexes unconsumed old nodes by subtree signature; the
	// secondary index bySigParent finds, in O(1), a candidate whose
	// parent is a given old node (Section 5.3's answer to d -> 0).
	// Buckets hold post-order indexes in ascending order. Only the BULD
	// arms build them (indexSignatures); Phase 3 is their only reader.
	bySig       map[uint64][]int32
	bySigParent map[sigParent][]int32

	// dupSig marks signatures that occur more than once across the two
	// documents. A unique signature is strong evidence by itself (the
	// paper's "very unlikely that there is more than one large subtree
	// with the same signature"); a duplicated one is not — repeated
	// dates or prices would otherwise weld unrelated parents together
	// once the candidate bucket drains to one live entry. A key stored
	// as false is index-build scratch: seen once so far in the new
	// document, not (yet) a duplicate.
	dupSig map[uint64]bool

	// q is the Phase 3 priority queue, retained across pooled reuses.
	q maxQueue

	// ukOld/ukNew are matchUniqueChildren scratch (non-recursive path
	// only; the recursive EagerDown ablation allocates instead, since
	// a shared map cannot survive reentrancy).
	ukOld, ukNew map[childKey]int

	// wbp is propagateToParents scratch.
	wbp map[int]float64

	// liItems/liKept/liStay are buildDelta's intra-parent move scratch,
	// reused across all matched parent pairs of one diff.
	liItems []lcs.Item
	liKept  []int
	liStay  map[int]bool

	logN float64
}

type sigParent struct {
	sig    uint64
	parent int32
}

// reset prepares a (possibly pooled) matcher for one diff of the two
// trees: nothing matched, nothing excluded.
func (m *matcher) reset(oldT, newT *tree, opts Options) {
	m.old, m.new, m.opts = oldT, newT, opts
	m.logN = math.Log2(float64(oldT.len() + newT.len() + 2))

	m.oldToNew = growSlice(m.oldToNew, oldT.len())
	m.newToOld = growSlice(m.newToOld, newT.len())
	for i := range m.oldToNew {
		m.oldToNew[i] = -1
	}
	for i := range m.newToOld {
		m.newToOld[i] = -1
	}
	m.oldExcluded = growSlice(m.oldExcluded, oldT.len())
	clear(m.oldExcluded)
	m.newExcluded = growSlice(m.newExcluded, newT.len())
	clear(m.newExcluded)

	if m.ukOld == nil {
		m.ukOld = make(map[childKey]int)
		m.ukNew = make(map[childKey]int)
		m.wbp = make(map[int]float64)
		m.liStay = make(map[int]bool)
	}
}

// indexSignatures builds the signature indexes Phase 3 reads, in one
// scan of each tree. Only the BULD arms call it: SFTM scores tokens and
// FromMatching is handed its pairs, so neither looks at a signature.
func (m *matcher) indexSignatures() {
	oldT, newT := m.old, m.new
	if m.bySig == nil {
		m.bySig = make(map[uint64][]int32, oldT.len())
		m.bySigParent = make(map[sigParent][]int32, oldT.len())
		m.dupSig = make(map[uint64]bool)
	} else {
		clear(m.bySig)
		clear(m.bySigParent)
		clear(m.dupSig)
	}
	oldRoot := oldT.root()
	for i := 0; i < oldRoot; i++ { // the document node is matched structurally
		sg := oldT.sig[i]
		bucket := append(m.bySig[sg], int32(i))
		m.bySig[sg] = bucket
		if len(bucket) == 2 {
			m.dupSig[sg] = true
		}
		key := sigParent{sg, oldT.parent[i]}
		m.bySigParent[key] = append(m.bySigParent[key], int32(i))
	}
	newRoot := newT.root()
	for i := 0; i < newRoot; i++ {
		sg := newT.sig[i]
		_, seen := m.dupSig[sg]
		m.dupSig[sg] = seen
	}
}

func (m *matcher) setMatch(oldIdx, newIdx int) {
	m.oldToNew[oldIdx] = newIdx
	m.newToOld[newIdx] = oldIdx
}

// compatible reports whether two nodes may be matched at all: same
// type, same label, neither already matched nor excluded.
func (m *matcher) compatible(oldIdx, newIdx int) bool {
	if m.oldToNew[oldIdx] >= 0 || m.newToOld[newIdx] >= 0 {
		return false
	}
	if m.oldExcluded[oldIdx] || m.newExcluded[newIdx] {
		return false
	}
	o, n := m.old.nodes[oldIdx], m.new.nodes[newIdx]
	return o.Type == n.Type && o.Name == n.Name
}

// depthBound is the paper's d = 1 + ceil(log2(n) * W/W0): how far up
// the ancestor chain a subtree of weight w may force decisions.
func (m *matcher) depthBound(w float64) int {
	if m.opts.MaxAncestorDepth > 0 {
		return m.opts.MaxAncestorDepth
	}
	w0 := m.old.totalWeight
	if m.new.totalWeight > w0 {
		w0 = m.new.totalWeight
	}
	return 1 + int(math.Ceil(m.logN*w/w0))
}

// ---------------------------------------------------------------------------
// Phase 1: ID attributes.

// phase1IDs matches nodes that are uniquely identified by an ID
// attribute. Nodes whose ID value appears in only one version are
// excluded from all further matching, per the paper.
func (m *matcher) phase1IDs() {
	if m.opts.DisableIDAttributes {
		return
	}
	ids := m.collectIDAttrs()
	if len(ids) == 0 {
		return
	}
	oldIDs, newIDs := idIndex(m.old, ids), idIndex(m.new, ids)
	for key, oi := range oldIDs {
		if oi < 0 {
			continue // duplicated ID value: ignore entirely
		}
		ni, ok := newIDs[key]
		if !ok || ni < 0 {
			m.oldExcluded[oi] = true
			continue
		}
		if m.compatible(oi, ni) {
			m.setMatch(oi, ni)
		}
	}
	for key, ni := range newIDs {
		if ni < 0 {
			continue
		}
		if oi, ok := oldIDs[key]; !ok || oi < 0 {
			m.newExcluded[ni] = true
		}
	}
	// "Then, a simple bottom-up and top-down propagation pass is
	// applied."
	m.propagateToParents()
	m.propagateToChildren()
}

// collectIDAttrs merges explicitly configured ID attributes with those
// declared in the old document's internal DTD subset (and the new
// one's, which normally names the same DTD).
func (m *matcher) collectIDAttrs() dtd.IDAttrs {
	ids := dtd.IDAttrs{}
	for _, doc := range []*dom.Node{m.old.doc, m.new.doc} {
		if doc.Doctype == "" {
			continue
		}
		// A malformed DTD only costs us Phase 1 information.
		if parsed, err := dtd.ParseDoctype(doc.Doctype); err == nil {
			for el, attr := range parsed {
				ids[el] = attr
			}
		}
	}
	for el, attr := range m.opts.IDAttrs {
		ids[el] = attr
	}
	return ids
}

type idKey struct {
	element string
	value   string
}

// idIndex maps (element, id-value) to the unique node carrying it;
// duplicate values map to -1.
func idIndex(t *tree, ids dtd.IDAttrs) map[idKey]int {
	out := make(map[idKey]int)
	for i, x := range t.nodes {
		if x.Type != dom.Element {
			continue
		}
		attr, ok := ids.Lookup(x.Name)
		if !ok {
			continue
		}
		v, ok := x.Attribute(attr)
		if !ok {
			continue
		}
		key := idKey{x.Name, v}
		if _, dup := out[key]; dup {
			out[key] = -1
		} else {
			out[key] = i
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Phase 3: heaviest-first subtree matching.

// queueItem orders new-document subtrees by weight; FIFO on ties, as
// the paper specifies.
type queueItem struct {
	idx    int
	weight float64
	seq    int
}

type maxQueue []queueItem

func (q maxQueue) Len() int { return len(q) }
func (q maxQueue) Less(i, j int) bool {
	if q[i].weight != q[j].weight {
		return q[i].weight > q[j].weight
	}
	return q[i].seq < q[j].seq
}
func (q maxQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *maxQueue) Push(x any)   { *q = append(*q, x.(queueItem)) }
func (q *maxQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// phase3BULD runs the core matching loop.
func (m *matcher) phase3BULD() {
	// Force-match the document nodes, then start from the top-level
	// items of the new version.
	m.setMatch(m.old.root(), m.new.root())
	q := m.q[:0]
	seq := 0
	root := m.new.root()
	for pos := range m.new.doc.Children {
		ci := m.new.child(root, pos)
		q = append(q, queueItem{idx: ci, weight: m.new.weight[ci], seq: seq})
		seq++
	}
	heap.Init(&q)
	pops := 0
	for q.Len() > 0 {
		// Large documents spend most of their diff here; honour
		// cancellation without paying a channel poll per pop.
		if pops++; pops&0x0fff == 0 && m.opts.canceled() {
			m.q = q
			return
		}
		item := heap.Pop(&q).(queueItem)
		y := item.idx
		if m.newToOld[y] >= 0 {
			continue // matched meanwhile (subtree or propagation)
		}
		enqueueChildren := func() {
			if m.new.nodes[y].Type == dom.Element {
				for pos := range m.new.nodes[y].Children {
					ci := m.new.child(y, pos)
					if m.newToOld[ci] < 0 {
						heap.Push(&q, queueItem{idx: ci, weight: m.new.weight[ci], seq: seq})
						seq++
					}
				}
			}
		}
		if m.newExcluded[y] {
			enqueueChildren()
			continue
		}
		best := m.bestCandidate(y)
		if best < 0 {
			enqueueChildren()
			continue
		}
		m.matchSubtrees(best, y)
		m.matchAncestors(best, y)
		if m.opts.EagerDown {
			m.eagerDownFrom(y)
		}
	}
	m.q = q // hand the grown backing array back for pooled reuse
}

// maxCandidates caps how many equal-signature candidates bestCandidate
// scans per ancestor level before giving up (the secondary index still
// finds parent-supported candidates in O(1)).
const maxCandidates = 64

// bestCandidate returns the old node to match the new subtree y with,
// or -1. It implements the paper's candidate selection: unique
// candidates are accepted directly; among several, one whose ancestor
// at some level <= depthBound matches y's same-level ancestor wins,
// with sibling-position distance as a tie-break. The (sig, parent)
// secondary index resolves the common case in constant time.
func (m *matcher) bestCandidate(y int) int {
	sig := m.new.sig[y]
	cands := m.liveCandidates(sig)
	if len(cands) == 0 {
		return -1
	}
	// A globally unique signature identifies its subtree on its own.
	// A duplicated one needs contextual support below, even when only
	// one live candidate remains: "live uniqueness" is an artifact of
	// consumption order, not evidence.
	if len(cands) == 1 && !m.dupSig[sig] {
		if m.acceptable(int(cands[0]), y) {
			return int(cands[0])
		}
		return -1
	}
	d := m.depthBound(m.new.weight[y])
	// Level 1 via the secondary index.
	if p := int(m.new.parent[y]); p >= 0 {
		if po := m.newToOld[p]; po >= 0 {
			if c := m.pickByParent(sig, po, y); c >= 0 {
				return c
			}
		}
	}
	// Higher levels: scan candidates, nearest ancestors first.
	if len(cands) > maxCandidates {
		cands = cands[:maxCandidates]
	}
	for level := 2; level <= d; level++ {
		ya := m.new.ancestor(y, level)
		if ya < 0 {
			break
		}
		oa := m.newToOld[ya]
		if oa < 0 {
			continue
		}
		// Tie-break on the position of the ancestors just below the
		// supporting pair: for a <title> supported by the site node,
		// that is the page position — the node's own sibling index
		// (always 0 for a first child) carries no signal.
		yBelow := m.new.ancestor(y, level-1)
		bestIdx, bestDist := -1, 1<<30
		for _, c32 := range cands {
			c := int(c32)
			if m.old.ancestor(c, level) != oa || !m.acceptable(c, y) {
				continue
			}
			cBelow := m.old.ancestor(c, level-1)
			dist := abs(int(m.old.childPos[cBelow]) - int(m.new.childPos[yBelow]))
			if dist < bestDist {
				bestIdx, bestDist = c, dist
			}
		}
		if bestIdx >= 0 {
			return bestIdx
		}
	}
	return -1
}

// liveCandidates filters the signature bucket down to still-unmatched
// nodes, compacting the bucket in place so repeated queries stay cheap.
func (m *matcher) liveCandidates(sig uint64) []int32 {
	bucket := m.bySig[sig]
	if len(bucket) == 0 {
		return nil
	}
	live := bucket[:0]
	for _, c := range bucket {
		if m.oldToNew[c] < 0 && !m.oldExcluded[c] {
			live = append(live, c)
		}
	}
	if len(live) == 0 {
		delete(m.bySig, sig)
		return nil
	}
	m.bySig[sig] = live
	return live
}

// pickByParent returns an acceptable candidate with the given old
// parent, preferring the one whose sibling position is closest to y's.
func (m *matcher) pickByParent(sig uint64, oldParent, y int) int {
	bucket := m.bySigParent[sigParent{sig, int32(oldParent)}]
	bestIdx, bestDist := -1, 1<<30
	for _, c32 := range bucket {
		c := int(c32)
		if m.oldToNew[c] >= 0 || m.oldExcluded[c] || !m.acceptable(c, y) {
			continue
		}
		dist := abs(int(m.old.childPos[c]) - int(m.new.childPos[y]))
		if dist < bestDist {
			bestIdx, bestDist = c, dist
		}
	}
	return bestIdx
}

// acceptable verifies a signature-equal candidate structurally. The
// verification walk costs no more than the matchSubtrees walk that
// follows an acceptance, so the overall complexity is unchanged, and it
// makes 64-bit signature collisions harmless.
func (m *matcher) acceptable(oldIdx, newIdx int) bool {
	if m.oldToNew[oldIdx] >= 0 || m.newToOld[newIdx] >= 0 {
		return false
	}
	return dom.Equal(m.old.nodes[oldIdx], m.new.nodes[newIdx])
}

// matchSubtrees matches two identical subtrees node by node. Nodes
// already matched (e.g. by ID in Phase 1) or excluded are skipped; the
// parallel walk still descends so their unmatched descendants pair up.
func (m *matcher) matchSubtrees(oldIdx, newIdx int) {
	if m.oldToNew[oldIdx] < 0 && m.newToOld[newIdx] < 0 &&
		!m.oldExcluded[oldIdx] && !m.newExcluded[newIdx] {
		m.setMatch(oldIdx, newIdx)
	}
	for pos := range m.old.nodes[oldIdx].Children {
		m.matchSubtrees(m.old.child(oldIdx, pos), m.new.child(newIdx, pos))
	}
}

// matchAncestors propagates an accepted match upward while labels agree
// (Phase 3's bottom-up propagation), at most depthBound(weight) levels.
func (m *matcher) matchAncestors(oldIdx, newIdx int) {
	limit := m.depthBound(m.new.weight[newIdx])
	o, n := int(m.old.parent[oldIdx]), int(m.new.parent[newIdx])
	for level := 0; level < limit && o >= 0 && n >= 0; level++ {
		if !m.compatible(o, n) {
			return
		}
		m.setMatch(o, n)
		o, n = int(m.old.parent[o]), int(m.new.parent[n])
	}
}

// eagerDownFrom immediately matches unique-label children below a fresh
// match (the EagerDown ablation; normally Phase 4 does this lazily).
func (m *matcher) eagerDownFrom(newIdx int) {
	oldIdx := m.newToOld[newIdx]
	if oldIdx < 0 {
		return
	}
	m.matchUniqueChildren(oldIdx, newIdx, true)
}

// ---------------------------------------------------------------------------
// Phase 4: structure-driven propagation.

// phase4Propagate runs the optimization passes: bottom-up "propagate to
// parent" followed by top-down "propagate to children".
func (m *matcher) phase4Propagate() {
	for pass := 0; pass < m.opts.passes(); pass++ {
		if m.opts.canceled() {
			return
		}
		m.propagateToParents()
		m.propagateToChildren()
	}
}

// propagateToParents scans the new document in post-order; an unmatched
// element whose children are matched adopts the parent of the heaviest
// group of its children's counterparts, when labels agree.
func (m *matcher) propagateToParents() {
	weightByParent := m.wbp
	for y := 0; y < m.new.len(); y++ {
		if m.newToOld[y] >= 0 || m.newExcluded[y] {
			continue
		}
		node := m.new.nodes[y]
		if node.Type != dom.Element || len(node.Children) == 0 {
			continue
		}
		clear(weightByParent)
		for pos := range node.Children {
			ci := m.new.child(y, pos)
			oi := m.newToOld[ci]
			if oi < 0 {
				continue
			}
			if po := int(m.old.parent[oi]); po >= 0 {
				weightByParent[po] += m.old.weight[oi]
			}
		}
		bestParent, bestWeight := -1, 0.0
		for po, w := range weightByParent {
			if w > bestWeight || (w == bestWeight && po > bestParent) {
				bestParent, bestWeight = po, w
			}
		}
		if bestParent >= 0 && m.compatible(bestParent, y) {
			m.setMatch(bestParent, y)
		}
	}
}

// propagateToChildren scans matched pairs in document order and matches
// children that are the unique unmatched child with a given label on
// both sides.
func (m *matcher) propagateToChildren() {
	// Pre-order over the new tree: parents first, so fresh matches
	// cascade downward within the single pass.
	m.new.walkPre(m.new.root(), func(y int) bool {
		if oi := m.newToOld[y]; oi >= 0 {
			m.matchUniqueChildren(oi, y, false)
		}
		return true
	})
}

// childKey buckets children for unique-label matching: elements by
// label, other node types by type.
type childKey struct {
	typ  dom.NodeType
	name string
}

// matchUniqueChildren matches children of a matched pair when each side
// has exactly one unmatched child with a given key. With recurse, it
// descends into every fresh match (EagerDown mode).
func (m *matcher) matchUniqueChildren(oldIdx, newIdx int, recurse bool) {
	o, n := m.old.nodes[oldIdx], m.new.nodes[newIdx]
	if len(o.Children) == 0 || len(n.Children) == 0 {
		return
	}
	oldByKey, newByKey := m.ukOld, m.ukNew
	if recurse {
		// Reentrant path: fresh maps, the shared scratch is in use by
		// the enclosing frame.
		oldByKey = make(map[childKey]int, len(o.Children))
		newByKey = make(map[childKey]int, len(n.Children))
	} else {
		clear(oldByKey)
		clear(newByKey)
	}
	for pos, c := range o.Children {
		ci := m.old.child(oldIdx, pos)
		if m.oldToNew[ci] >= 0 || m.oldExcluded[ci] {
			continue
		}
		k := keyOf(c)
		if _, dup := oldByKey[k]; dup {
			oldByKey[k] = -1
		} else {
			oldByKey[k] = ci
		}
	}
	for pos, c := range n.Children {
		ci := m.new.child(newIdx, pos)
		if m.newToOld[ci] >= 0 || m.newExcluded[ci] {
			continue
		}
		k := keyOf(c)
		if _, dup := newByKey[k]; dup {
			newByKey[k] = -1
		} else {
			newByKey[k] = ci
		}
	}
	for k, oi := range oldByKey {
		ni, ok := newByKey[k]
		if !ok || oi < 0 || ni < 0 {
			continue
		}
		if m.compatible(oi, ni) {
			m.setMatch(oi, ni)
			if recurse {
				m.matchUniqueChildren(oi, ni, true)
			}
		}
	}
}

func keyOf(n *dom.Node) childKey {
	if n.Type == dom.Element || n.Type == dom.ProcInst {
		return childKey{n.Type, n.Name}
	}
	return childKey{n.Type, ""}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

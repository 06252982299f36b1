package diff

import (
	"cmp"
	"math"
	"slices"

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

	// The signature index Phase 3 reads (Section 5.3's hash table of
	// old subtrees), on flat arrays. sigID gives each old signature a
	// dense id; bucket id is byIdx[sigOff[id]:sigOff[id+1]], its old
	// nodes in ascending post-order, of which the first sigLive[id] may
	// still be unconsumed (liveCandidates compacts the run). byPar holds
	// the same buckets ordered by (old parent, post-order), so
	// pickByParent finds, by binary search, the candidates whose parent
	// is a given old node (Section 5.3's answer to d -> 0). newSig is
	// each new node's id, -1 when the old document lacks its signature.
	// Only the BULD arms build them (indexSignatures).
	sigID   map[uint64]int32
	sigOff  []int32
	sigLive []int32
	byIdx   []int32
	byPar   []int32
	newSig  []int32

	// dupSig marks, per id, a signature that occurs at least twice in
	// one of the documents; once in each is unique. A unique signature
	// is strong evidence by itself (the paper's "very unlikely that
	// there is more than one large subtree with the same signature"); a
	// duplicated one is not — repeated dates or prices would otherwise
	// weld unrelated parents together once the candidate bucket drains
	// to one live entry.
	dupSig []bool

	// oldSig and newSeen are indexSignatures scratch: each old node's
	// id, and which ids the new document has shown once.
	oldSig  []int32
	newSeen []bool

	// q is the Phase 3 priority queue, retained across pooled reuses.
	q maxQueue

	// ukOld/ukNew are matchUniqueChildren scratch (non-recursive path
	// only; the recursive EagerDown ablation allocates instead, since
	// a shared map cannot survive reentrancy).
	ukOld, ukNew map[childKey]int

	// wbp is propagateToParents scratch.
	wbp map[int]float64

	// liItems/liKept/liSel/liStay are findReorders' scratch, reused
	// across all matched parent pairs of one diff: liSel holds the kept
	// children that stay, liStay marks them by position in liKept, and
	// liMoves collects the old children that move within their parent.
	liItems []lcs.Item
	liKept  []int
	liSel   []int
	liStay  []bool
	liMoves []int

	logN float64
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
	}
}

// indexSignatures builds the signature index Phase 3 reads, with one
// map lookup per node of each tree. Only the BULD arms call it: SFTM
// scores tokens and FromMatching is handed its pairs, so neither looks
// at a signature.
func (m *matcher) indexSignatures() {
	oldT, newT := m.old, m.new
	if m.sigID == nil {
		m.sigID = make(map[uint64]int32, oldT.len())
	} else {
		clear(m.sigID)
	}
	// Dense ids, and each bucket's size counted in sigLive. The
	// document node is matched structurally and indexed nowhere.
	oldRoot := oldT.root()
	m.oldSig = growSlice(m.oldSig, oldRoot)
	m.sigLive = m.sigLive[:0]
	for i, sg := range oldT.sig[:oldRoot] {
		id, ok := m.sigID[sg]
		if !ok {
			id = int32(len(m.sigLive))
			m.sigID[sg] = id
			m.sigLive = append(m.sigLive, 0)
		}
		m.sigLive[id]++
		m.oldSig[i] = id
	}
	ids := len(m.sigLive)
	m.sigOff = growSlice(m.sigOff, ids+1)
	m.dupSig = growSlice(m.dupSig, ids)
	off := int32(0)
	for id, n := range m.sigLive {
		m.sigOff[id] = off
		m.dupSig[id] = n >= 2
		off += n
	}
	m.sigOff[ids] = off

	newRoot := newT.root()
	m.newSig = growSlice(m.newSig, newRoot)
	m.newSeen = growSlice(m.newSeen, ids)
	clear(m.newSeen)
	for i, sg := range newT.sig[:newRoot] {
		id, ok := m.sigID[sg]
		if !ok {
			m.newSig[i] = -1
			continue
		}
		m.newSig[i] = id
		if m.newSeen[id] {
			m.dupSig[id] = true
		}
		m.newSeen[id] = true
	}

	// Fill both bucket arrays, sigLive serving as each bucket's cursor
	// (it ends back at the bucket's size). byIdx in ascending
	// post-order; byPar parent by parent in post-order, each parent's
	// children in order — ascending post-order again — so every byPar
	// bucket comes out sorted by (parent, post-order) without a sort.
	m.byIdx = growSlice(m.byIdx, oldRoot)
	clear(m.sigLive)
	for i, id := range m.oldSig[:oldRoot] {
		m.byIdx[m.sigOff[id]+m.sigLive[id]] = int32(i)
		m.sigLive[id]++
	}
	m.byPar = growSlice(m.byPar, oldRoot)
	clear(m.sigLive)
	for p := 0; p <= oldRoot; p++ {
		kids := oldT.kids[oldT.kidStart[p]:][:len(oldT.nodes[p].Children)]
		for _, c := range kids {
			id := m.oldSig[c]
			m.byPar[m.sigOff[id]+m.sigLive[id]] = c
			m.sigLive[id]++
		}
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
		if doc.Type != dom.Document || doc.Value == "" {
			continue
		}
		// A malformed DTD only costs us Phase 1 information.
		if parsed, err := dtd.ParseDoctype(doc.Value); err == nil {
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
	weight float64
	idx    int32
	seq    int32
}

// maxQueue is a binary max-heap of queue items. less is a total order
// (seq is unique), so the pop order does not depend on the heap's
// shape.
type maxQueue []queueItem

func (q maxQueue) less(i, j int) bool {
	if q[i].weight != q[j].weight {
		return q[i].weight > q[j].weight
	}
	return q[i].seq < q[j].seq
}

func (q *maxQueue) push(it queueItem) {
	*q = append(*q, it)
	h := *q
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (q *maxQueue) pop() queueItem {
	h := *q
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	h[:n].down(0)
	*q = h[:n]
	return h[n]
}

// down sifts item i towards the leaves until the heap holds again.
func (q maxQueue) down(i int) {
	for {
		j := 2*i + 1
		if j >= len(q) {
			return
		}
		if j2 := j + 1; j2 < len(q) && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			return
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// phase3BULD runs the core matching loop.
func (m *matcher) phase3BULD() {
	// Force-match the document nodes, then start from the top-level
	// items of the new version.
	m.setMatch(m.old.root(), m.new.root())
	q := m.q[:0]
	seq := int32(0)
	root := m.new.root()
	for pos := range m.new.doc.Children {
		ci := m.new.child(root, pos)
		q = append(q, queueItem{weight: m.new.weight[ci], idx: int32(ci), seq: seq})
		seq++
	}
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
	pops := 0
	for len(q) > 0 {
		// Large documents spend most of their diff here; honour
		// cancellation without paying a channel poll per pop.
		if pops++; pops&0x0fff == 0 && m.opts.canceled() {
			m.q = q
			return
		}
		y := int(q.pop().idx)
		if m.newToOld[y] >= 0 {
			continue // matched meanwhile (subtree or propagation)
		}
		enqueueChildren := func() {
			if m.new.nodes[y].Type == dom.Element {
				for pos := range m.new.nodes[y].Children {
					ci := m.new.child(y, pos)
					if m.newToOld[ci] < 0 {
						q.push(queueItem{weight: m.new.weight[ci], idx: int32(ci), seq: seq})
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
// scans per ancestor level before giving up (byPar still finds
// parent-supported candidates among all of them).
const maxCandidates = 64

// bestCandidate returns the old node to match the new subtree y with,
// or -1. It implements the paper's candidate selection: unique
// candidates are accepted directly; among several, one whose ancestor
// at some level <= depthBound matches y's same-level ancestor wins,
// with sibling-position distance as a tie-break. The byPar buckets
// resolve the common case, support by the parent, with one binary
// search.
func (m *matcher) bestCandidate(y int) int {
	id := m.newSig[y]
	if id < 0 {
		return -1
	}
	cands := m.liveCandidates(id)
	if len(cands) == 0 {
		return -1
	}
	// A globally unique signature identifies its subtree on its own.
	// A duplicated one needs contextual support below, even when only
	// one live candidate remains: "live uniqueness" is an artifact of
	// consumption order, not evidence.
	if len(cands) == 1 && !m.dupSig[id] {
		if m.acceptable(int(cands[0]), y) {
			return int(cands[0])
		}
		return -1
	}
	d := m.depthBound(m.new.weight[y])
	// Level 1 via byPar.
	if p := int(m.new.parent[y]); p >= 0 {
		if po := m.newToOld[p]; po >= 0 {
			if c := m.pickByParent(id, po, y); c >= 0 {
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

// liveCandidates filters bucket id down to still-unmatched nodes,
// compacting its byIdx run in place so repeated queries stay cheap.
func (m *matcher) liveCandidates(id int32) []int32 {
	off := m.sigOff[id]
	bucket := m.byIdx[off : off+m.sigLive[id]]
	live := bucket[:0]
	for _, c := range bucket {
		if m.oldToNew[c] < 0 && !m.oldExcluded[c] {
			live = append(live, c)
		}
	}
	m.sigLive[id] = int32(len(live))
	return live
}

// pickByParent returns an acceptable candidate of bucket id with the
// given old parent, preferring the one whose sibling position is
// closest to y's; on equal distance, the first in post-order.
func (m *matcher) pickByParent(id int32, oldParent, y int) int {
	parent := m.old.parent
	run := m.byPar[m.sigOff[id]:m.sigOff[id+1]]
	first, _ := slices.BinarySearchFunc(run, int32(oldParent), func(c, p int32) int {
		return cmp.Compare(parent[c], p)
	})
	bestIdx, bestDist := -1, 1<<30
	for _, c32 := range run[first:] {
		c := int(c32)
		if int(parent[c]) != oldParent {
			break
		}
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

package diff

// The signature index and priority queue Phase 3 ran on before they
// moved onto flat arrays, kept verbatim as the oracle for
// FuzzBULDMatchingDifferential: three maps with a slice per bucket, and
// a container/heap queue of boxed items. refMatcher embeds the shipped
// matcher, so the moved methods read its trees and matching unchanged
// and only the index, the queue and the methods that read them are the
// old ones.

import (
	"container/heap"
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

type refMatcher struct {
	*matcher

	bySig       map[uint64][]int32
	bySigParent map[sigParent][]int32
	dupSig      map[uint64]bool
	q           refQueue
}

type sigParent struct {
	sig    uint64
	parent int32
}

// ReferenceDiff is Diff's BULD arm with the reference Phase 3.
func ReferenceDiff(oldDoc, newDoc *dom.Node, opts Options) (*delta.Delta, error) {
	if err := checkDocuments(oldDoc, newDoc); err != nil {
		return nil, err
	}
	m := referenceMatch(oldDoc, newDoc, opts)
	defer m.release()
	return m.buildDelta(), nil
}

// ReferenceMatching is Matching's BULD arm with the reference Phase 3.
func ReferenceMatching(oldDoc, newDoc *dom.Node, opts Options) (map[*dom.Node]*dom.Node, error) {
	if err := checkDocuments(oldDoc, newDoc); err != nil {
		return nil, err
	}
	m := referenceMatch(oldDoc, newDoc, opts)
	defer m.release()
	pairs := make(map[*dom.Node]*dom.Node, m.new.len())
	for oi, ni := range m.oldToNew {
		if ni >= 0 && m.old.nodes[oi].Type != dom.Document {
			pairs[m.old.nodes[oi]] = m.new.nodes[ni]
		}
	}
	return pairs, nil
}

// referenceMatch runs BULD's matching phases with the reference index
// and queue; the caller releases the matcher.
func referenceMatch(oldDoc, newDoc *dom.Node, opts Options) *refMatcher {
	if opts.matcher() != MatcherBULD {
		panic(fmt.Sprintf("reference: matcher %q", opts.Matcher))
	}
	m := &refMatcher{matcher: newMatcher(oldDoc, newDoc, opts, true)}
	m.indexSignatures()
	m.phase1IDs()
	m.phase3BULD()
	m.phase4Propagate()
	return m
}

// indexSignatures builds the signature indexes Phase 3 reads, in one
// scan of each tree. Only the BULD arms call it: SFTM scores tokens and
// FromMatching is handed its pairs, so neither looks at a signature.
func (m *refMatcher) indexSignatures() {
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

// refQueueItem orders new-document subtrees by weight; FIFO on ties, as
// the paper specifies.
type refQueueItem struct {
	idx    int
	weight float64
	seq    int
}

type refQueue []refQueueItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].weight != q[j].weight {
		return q[i].weight > q[j].weight
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refQueueItem)) }
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	item := old[n-1]
	*q = old[:n-1]
	return item
}

// phase3BULD runs the core matching loop.
func (m *refMatcher) phase3BULD() {
	// Force-match the document nodes, then start from the top-level
	// items of the new version.
	m.setMatch(m.old.root(), m.new.root())
	q := m.q[:0]
	seq := 0
	root := m.new.root()
	for pos := range m.new.doc.Children {
		ci := m.new.child(root, pos)
		q = append(q, refQueueItem{idx: ci, weight: m.new.weight[ci], seq: seq})
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
		item := heap.Pop(&q).(refQueueItem)
		y := item.idx
		if m.newToOld[y] >= 0 {
			continue // matched meanwhile (subtree or propagation)
		}
		enqueueChildren := func() {
			if m.new.nodes[y].Type == dom.Element {
				for pos := range m.new.nodes[y].Children {
					ci := m.new.child(y, pos)
					if m.newToOld[ci] < 0 {
						heap.Push(&q, refQueueItem{idx: ci, weight: m.new.weight[ci], seq: seq})
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

// bestCandidate returns the old node to match the new subtree y with,
// or -1. It implements the paper's candidate selection: unique
// candidates are accepted directly; among several, one whose ancestor
// at some level <= depthBound matches y's same-level ancestor wins,
// with sibling-position distance as a tie-break. The (sig, parent)
// secondary index resolves the common case in constant time.
func (m *refMatcher) bestCandidate(y int) int {
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
func (m *refMatcher) liveCandidates(sig uint64) []int32 {
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
func (m *refMatcher) pickByParent(sig uint64, oldParent, y int) int {
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

// Package baseline implements the prior-art algorithms the paper
// compares BULD against (Section 3):
//
//   - Lu's algorithm in Selkow's variant: an O(|D1|·|D2|) tree edit
//     distance where insertions and deletions operate on subtrees and
//     matched nodes align their children with a string-edit dynamic
//     program;
//   - a LaDiff-style matcher (Chawathe et al., SIGMOD 1996): leaf
//     matching followed by bottom-up internal matching, quadratic in
//     the worst case;
//   - a DiffMK-style differ: the document flattened to a token list and
//     run through a line diff, losing the tree structure.
//
// The first two produce node matchings that are fed to the shared
// delta constructor (diff.FromMatching), so output quality is directly
// comparable with BULD.
package baseline

import (
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// LuSelkow computes a delta between two documents using the
// Selkow-variant tree edit distance (recursive child-sequence
// alignment). Time and space are O(|old|·|new|) in the worst case —
// this is the quadratic baseline of the paper's state of the art.
func LuSelkow(oldDoc, newDoc *dom.Node) (*delta.Delta, error) {
	m := newLuMatcher(oldDoc, newDoc)
	pairs := make(map[*dom.Node]*dom.Node)
	m.align(oldDoc, newDoc, pairs)
	return diff.FromMatching(oldDoc, newDoc, pairs, diff.Options{})
}

// newLuMatcher indexes both documents for the edit-distance recursion;
// m.dist(oldDoc, newDoc) is then the raw Selkow distance.
func newLuMatcher(oldDoc, newDoc *dom.Node) *luMatcher {
	m := &luMatcher{memo: make(map[luKey]int)}
	m.oldN = dom.Postorder(oldDoc)
	m.newN = dom.Postorder(newDoc)
	m.oldIdx = indexOf(m.oldN)
	m.newIdx = indexOf(m.newN)
	m.size = make([]int, len(m.oldN))
	for i, n := range m.oldN {
		m.size[i] = n.Size()
	}
	m.sizeNew = make([]int, len(m.newN))
	for i, n := range m.newN {
		m.sizeNew[i] = n.Size()
	}
	return m
}

type luKey struct{ o, n int32 }

type luMatcher struct {
	oldN, newN []*dom.Node
	oldIdx     map[*dom.Node]int
	newIdx     map[*dom.Node]int
	size       []int
	sizeNew    []int
	memo       map[luKey]int
}

const luInf = int(1) << 30

// relabelCost is the cost of substituting the roots: 0 when identical,
// 1 for a text/value update between same-label nodes, impossible
// otherwise (Selkow: only matching labels align; others are
// delete+insert).
func (m *luMatcher) relabelCost(o, n *dom.Node) int {
	if o.Type != n.Type || o.Name != n.Name {
		return luInf
	}
	if o.Value == n.Value {
		return 0
	}
	return 1
}

// dist is Selkow's recursive distance between the subtrees rooted at o
// and n, memoized on post-order indexes.
func (m *luMatcher) dist(o, n *dom.Node) int {
	rc := m.relabelCost(o, n)
	if rc >= luInf {
		return luInf
	}
	key := luKey{int32(m.oldIdx[o]), int32(m.newIdx[n])}
	if v, ok := m.memo[key]; ok {
		return v
	}
	d := rc + m.childEdit(o, n, nil)
	m.memo[key] = d
	return d
}

// childEdit runs the string-edit dynamic program over the child lists:
// deleting a child costs its subtree size, inserting likewise, and
// substituting recurses. When pairs is non-nil the chosen alignment is
// replayed into the matching.
func (m *luMatcher) childEdit(o, n *dom.Node, pairs map[*dom.Node]*dom.Node) int {
	oc, nc := o.Children, n.Children
	rows, cols := len(oc)+1, len(nc)+1
	dp := make([]int, rows*cols)
	at := func(i, j int) int { return i*cols + j }
	for i := 1; i < rows; i++ {
		dp[at(i, 0)] = dp[at(i-1, 0)] + m.size[m.oldIdx[oc[i-1]]]
	}
	for j := 1; j < cols; j++ {
		dp[at(0, j)] = dp[at(0, j-1)] + m.sizeNew[m.newIdx[nc[j-1]]]
	}
	for i := 1; i < rows; i++ {
		for j := 1; j < cols; j++ {
			del := dp[at(i-1, j)] + m.size[m.oldIdx[oc[i-1]]]
			ins := dp[at(i, j-1)] + m.sizeNew[m.newIdx[nc[j-1]]]
			best := min(del, ins)
			if sub := m.dist(oc[i-1], nc[j-1]); sub < luInf {
				if v := dp[at(i-1, j-1)] + sub; v < best {
					best = v
				}
			}
			dp[at(i, j)] = best
		}
	}
	if pairs != nil {
		// Backtrack to recover the alignment and recurse into
		// substituted pairs.
		i, j := len(oc), len(nc)
		for i > 0 && j > 0 {
			cur := dp[at(i, j)]
			if sub := m.dist(oc[i-1], nc[j-1]); sub < luInf && cur == dp[at(i-1, j-1)]+sub {
				m.align(oc[i-1], nc[j-1], pairs)
				i--
				j--
				continue
			}
			if cur == dp[at(i-1, j)]+m.size[m.oldIdx[oc[i-1]]] {
				i--
				continue
			}
			j--
		}
	}
	return dp[at(len(oc), len(nc))]
}

// align records the root pair and replays the optimal child alignment.
func (m *luMatcher) align(o, n *dom.Node, pairs map[*dom.Node]*dom.Node) {
	if m.relabelCost(o, n) >= luInf {
		return
	}
	pairs[o] = n
	m.childEdit(o, n, pairs)
}

func indexOf(nodes []*dom.Node) map[*dom.Node]int {
	idx := make(map[*dom.Node]int, len(nodes))
	for i, n := range nodes {
		idx[n] = i
	}
	return idx
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

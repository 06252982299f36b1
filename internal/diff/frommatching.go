package diff

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// FromMatching builds a completed delta from an externally computed
// node matching (old node -> new node). It exists so alternative
// matching algorithms — the baselines of the paper's Section 3 — can be
// compared with BULD on equal footing: same delta construction, same
// intra-parent move optimization, same representation.
//
// Pairs that are structurally impossible (different node types or
// labels, either side already used) are silently dropped; the document
// nodes are always matched. The same XID side effects as Diff apply.
func FromMatching(oldDoc, newDoc *dom.Node, pairs map[*dom.Node]*dom.Node, opts Options) (*delta.Delta, error) {
	if oldDoc == nil || newDoc == nil {
		return nil, fmt.Errorf("diff: nil document")
	}
	if oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return nil, fmt.Errorf("diff: arguments must be Document nodes")
	}
	m := newMatcher(oldDoc, newDoc, opts)
	defer m.release()
	m.setMatch(m.old.root(), m.new.root())
	// The external pairs address dom nodes; the annotation no longer
	// keeps a node→index map, so build one per side for this call.
	oldIdx := indexOf(m.old)
	newIdx := indexOf(m.new)
	for o, n := range pairs {
		oi, ok := oldIdx[o]
		if !ok {
			return nil, fmt.Errorf("diff: matching references a node outside the old document")
		}
		ni, ok := newIdx[n]
		if !ok {
			return nil, fmt.Errorf("diff: matching references a node outside the new document")
		}
		if m.compatible(oi, ni) {
			m.setMatch(oi, ni)
		}
	}
	return m.buildDelta(), nil
}

func indexOf(t *tree) map[*dom.Node]int {
	idx := make(map[*dom.Node]int, t.len())
	for i, n := range t.nodes {
		idx[n] = i
	}
	return idx
}

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
	if err := checkDocuments(oldDoc, newDoc); err != nil {
		return nil, err
	}
	m := newMatcher(oldDoc, newDoc, opts, false)
	defer m.release()
	m.setMatch(m.old.root(), m.new.root())
	// The pairs address dom nodes; the annotation keeps no node→index
	// map, so build one for the new side and walk the old side's nodes.
	newIdx := make(map[*dom.Node]int, m.new.len())
	for i, n := range m.new.nodes {
		newIdx[n] = i
	}
	found := 0
	for oi, o := range m.old.nodes {
		n, ok := pairs[o]
		if !ok {
			continue
		}
		found++
		ni, ok := newIdx[n]
		if !ok {
			return nil, fmt.Errorf("diff: matching references a node outside the new document")
		}
		if m.compatible(oi, ni) {
			m.setMatch(oi, ni)
		}
	}
	if found != len(pairs) {
		return nil, fmt.Errorf("diff: matching references a node outside the old document")
	}
	return m.buildDelta(), nil
}

// checkDocuments is the argument check of every entry point that takes
// two versions.
func checkDocuments(oldDoc, newDoc *dom.Node) error {
	if oldDoc == nil || newDoc == nil {
		return fmt.Errorf("diff: nil document")
	}
	if oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return fmt.Errorf("diff: arguments must be Document nodes")
	}
	return nil
}

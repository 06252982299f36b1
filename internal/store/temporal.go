package store

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// This file implements the paper's "querying the past" (Section 2):
// because any version is reconstructible and deltas are ordinary XML,
// temporal questions reduce to path queries over reconstructed
// versions and over the stored delta chain.

// Query evaluates a path expression against version n of the document.
func (s *Store) Query(id string, version int, expr *xpathlite.Expr) ([]*dom.Node, error) {
	doc, err := s.Version(id, version)
	if err != nil {
		return nil, err
	}
	return expr.Select(doc), nil
}

// ValueAt returns the text content of the first node matching expr in
// version n ("" when nothing matches).
func (s *Store) ValueAt(id string, version int, expr *xpathlite.Expr) (string, error) {
	doc, err := s.Version(id, version)
	if err != nil {
		return "", err
	}
	return expr.Value(doc), nil
}

// VersionValue is one point of a Timeline: the value of an expression
// at one version.
type VersionValue struct {
	Version int
	Found   bool
	Value   string
}

// Timeline evaluates the expression at every version, oldest first —
// "ask for the value of some element at some previous time" across all
// of time. Versions are reconstructed incrementally (one delta apply
// per step), not from scratch per version.
func (s *Store) Timeline(id string, expr *xpathlite.Expr) ([]VersionValue, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	// Walk backward from the latest version, prepending results.
	out := make([]VersionValue, h.versions)
	doc := h.latest.Clone()
	for v := h.versions; v >= 1; v-- {
		first := expr.SelectFirst(doc)
		out[v-1] = VersionValue{Version: v, Found: first != nil}
		if first != nil {
			out[v-1].Value = first.TextContent()
		}
		if v > 1 {
			if err := applyInverse(doc, h.deltas[v-2]); err != nil {
				return nil, fmt.Errorf("store: timeline %s at version %d: %w", id, v-1, err)
			}
		}
	}
	return out, nil
}

// NodeState describes one persistent node (addressed by XID) at one
// version.
type NodeState struct {
	Version int
	Present bool
	Path    string
	Value   string // text content of the subtree
}

// NodeHistory tracks a node across every version by its persistent
// identifier: present or not, where it lives, and what it contains.
// This is the paper's core use of XIDs — following "parts of an XML
// document through time", including across moves.
func (s *Store) NodeHistory(id string, xid int64) ([]NodeState, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	out := make([]NodeState, h.versions)
	doc := h.latest.Clone()
	for v := h.versions; v >= 1; v-- {
		st := NodeState{Version: v}
		if n := dom.FindByXID(doc, xid); n != nil {
			st.Present = true
			st.Path = n.Path()
			st.Value = n.TextContent()
		}
		out[v-1] = st
		if v > 1 {
			if err := applyInverse(doc, h.deltas[v-2]); err != nil {
				return nil, fmt.Errorf("store: history %s at version %d: %w", id, v-1, err)
			}
		}
	}
	return out, nil
}

// ChangeHit is one delta operation selected by ChangesMatching.
type ChangeHit struct {
	// Version is the version the operation produced (the op belongs to
	// the delta from Version-1 to Version).
	Version int
	Op      delta.Op
	// Path locates the affected node (in the new version when it still
	// exists there, otherwise in the old one).
	Path string
}

// ChangesMatching scans the deltas between versions from and to
// (forward, from < to) and returns the operations whose affected node
// matches the pattern — "ask for the list of items recently introduced
// in a catalog" is ChangesMatching(id, v, latest, //Product, KindInsert).
// An empty kinds list selects every operation kind.
func (s *Store) ChangesMatching(id string, from, to int, pattern *xpathlite.Expr, kinds ...delta.Kind) ([]ChangeHit, error) {
	h, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer h.mu.RUnlock()
	if from < 1 || to > h.versions || from >= to {
		return nil, fmt.Errorf("store: bad version range %d..%d (have 1..%d): %w", from, to, h.versions, ErrNoSuchVersion)
	}
	kindOK := func(k delta.Kind) bool {
		if len(kinds) == 0 {
			return true
		}
		for _, want := range kinds {
			if want == k {
				return true
			}
		}
		return false
	}
	// Reconstruct version `from`, then replay forward, inspecting each
	// delta against the version before and after it.
	doc, err := versionLocked(h, from)
	if err != nil {
		return nil, err
	}
	var hits []ChangeHit
	for v := from; v < to; v++ {
		d := h.deltas[v-1]
		next := doc.Clone()
		if err := delta.Apply(next, d); err != nil {
			return nil, fmt.Errorf("store: replay %s delta %d: %w", id, v, err)
		}
		t := delta.Resolve(d, doc, next)
		for i, op := range d.Ops {
			if !kindOK(op.Kind()) {
				continue
			}
			node := t.New[i]
			if node == nil || op.Kind() == delta.KindDelete {
				node = t.Old[i]
			}
			if node == nil || !matchesWithTextParent(pattern, node) {
				continue
			}
			path := node.Path()
			if node.Type == dom.Text && node.Parent != nil {
				path = node.Parent.Path()
			}
			hits = append(hits, ChangeHit{Version: v + 1, Op: op, Path: path})
		}
		doc = next
	}
	return hits, nil
}

// matchesWithTextParent applies the pattern to the node, falling back
// to the parent element for text nodes (an update of <Price>'s text
// should match //Price).
func matchesWithTextParent(pattern *xpathlite.Expr, n *dom.Node) bool {
	if pattern.Matches(n) {
		return true
	}
	return n.Type == dom.Text && n.Parent != nil && pattern.Matches(n.Parent)
}

// Aggregate returns one delta with the combined effect of the chain
// from version from to version to (the paper's delta aggregation).
// from > to yields the inverted aggregate, from == to an empty delta —
// for a version Version would serve; the others get Version's error.
func (s *Store) Aggregate(id string, from, to int) (*delta.Delta, error) {
	if from == to {
		h, err := s.reading(id)
		if err != nil {
			return nil, err
		}
		defer h.mu.RUnlock()
		if from < 1 || from > h.versions {
			return nil, fmt.Errorf("store: %s has versions 1..%d, not %d: %w", id, h.versions, from, ErrNoSuchVersion)
		}
		return &delta.Delta{}, nil
	}
	base, err := s.Version(id, min(from, to))
	if err != nil {
		return nil, err
	}
	chain, err := s.DeltasBetween(id, min(from, to), max(from, to))
	if err != nil {
		return nil, err
	}
	d, err := diff.Compose(base, chain...)
	if err != nil {
		return nil, err
	}
	if from > to {
		if d, err = d.Invert(); err != nil {
			return nil, fmt.Errorf("store: aggregate %s %d..%d: %w", id, from, to, err)
		}
	}
	return d, nil
}

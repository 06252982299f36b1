package vstore

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// "Querying the past" (PAPER.md §2): because any version is
// reconstructible and deltas are ordinary XML, temporal questions
// reduce to path queries over reconstructed versions and over the
// stored delta chain, with deltas thawed on demand from their resident
// frames.

// VersionValue is one point of a Timeline: the value of an expression
// at one version.
type VersionValue struct {
	Version int
	Found   bool
	Value   string
}

// NodeState describes one persistent node (addressed by XID) at one
// version.
type NodeState struct {
	Version int
	Present bool
	Path    string
	Value   string // text content of the subtree
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

// Timeline evaluates the expression at every version, oldest first.
// One read walk visits every version, one delta step apiece, not one
// reconstruction per version.
func (s *Store) Timeline(id string, expr *xpathlite.Expr) ([]VersionValue, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	out := make([]VersionValue, st.versions)
	_, err = s.read(id, st, allVersions(st), func(v int, doc *dom.Node, _ bool) error {
		first := expr.SelectFirst(doc)
		out[v-1] = VersionValue{Version: v, Found: first != nil}
		if first != nil {
			out[v-1].Value = first.TextContent()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// NodeHistory tracks a node across every version by its persistent
// identifier: present or not, where it lives, and what it contains.
func (s *Store) NodeHistory(id string, xid int64) ([]NodeState, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	out := make([]NodeState, st.versions)
	_, err = s.read(id, st, allVersions(st), func(v int, doc *dom.Node, _ bool) error {
		ns := NodeState{Version: v}
		if n := dom.FindByXID(doc, xid); n != nil {
			ns.Present = true
			ns.Path = n.Path()
			ns.Value = n.TextContent()
		}
		out[v-1] = ns
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// allVersions is every version of the document, as read walk targets.
func allVersions(st *docState) []int {
	vs := make([]int, st.versions)
	for i := range vs {
		vs[i] = i + 1
	}
	return vs
}

// ChangesMatching scans the deltas between versions from and to
// (forward, from < to) and returns the operations whose affected node
// matches the pattern. An empty kinds list selects every operation
// kind.
func (s *Store) ChangesMatching(id string, from, to int, pattern *xpathlite.Expr, kinds ...delta.Kind) ([]ChangeHit, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	if from >= to {
		return nil, fmt.Errorf("vstore: bad version range %d..%d (have 1..%d): %w", from, to, st.versions, ErrNoSuchVersion)
	}
	if err := st.checkRange(id, from, to); err != nil {
		return nil, err
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
	// Reconstruct version `from` by the read walk, then replay forward,
	// inspecting each delta against the version before and after it.
	var doc *dom.Node
	if _, err := s.read(id, st, []int{from}, func(_ int, d *dom.Node, own bool) error {
		doc = private(d, own)
		return nil
	}); err != nil {
		return nil, err
	}
	var hits []ChangeHit
	for v := from; v < to; v++ {
		d, err := s.decodeDelta(st, v-1)
		if err != nil {
			return nil, err
		}
		next := doc.Clone()
		if err := delta.Apply(next, d); err != nil {
			return nil, fmt.Errorf("vstore: replay %s delta %d: %w", id, v, err)
		}
		t := delta.Resolve(d, doc, next)
		// One Pather per step ranks each wide parent's children, in
		// either version, once for all the ops.
		var paths dom.Pather
		for i, op := range d.Ops {
			if !kindOK(op.Kind) {
				continue
			}
			node := t.New[i]
			if node == nil || op.Kind == delta.KindDelete {
				node = t.Old[i]
			}
			if node == nil || !matchesWithTextParent(pattern, node) {
				continue
			}
			if node.Type == dom.Text && node.Parent != nil {
				node = node.Parent
			}
			hits = append(hits, ChangeHit{Version: v + 1, Op: op, Path: paths.Path(node)})
		}
		doc = next
	}
	return hits, nil
}

// matchesWithTextParent applies the pattern to the node, falling back
// to the parent element for text nodes.
func matchesWithTextParent(pattern *xpathlite.Expr, n *dom.Node) bool {
	if pattern.Matches(n) {
		return true
	}
	return n.Type == dom.Text && n.Parent != nil && pattern.Matches(n.Parent)
}

// Aggregate returns one delta with the combined effect of the chain
// from version from to version to. from > to yields the inverted
// aggregate, from == to an empty delta — for a version Version would
// serve; the others get Version's error. A range of one step is the
// stored delta itself, decoded once: diff.ComposeVersions minimizes
// moves by the rule a Put uses under the default LISWindow, so
// composing its two ends would give the same bytes. Longer ranges take
// one read walk to reconstruct both ends, and those two trees are all
// ComposeVersions needs.
func (s *Store) Aggregate(id string, from, to int) (*delta.Delta, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	if from == to {
		err := st.checkVersion(id, from)
		st.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return &delta.Delta{}, nil
	}
	lo, hi := min(from, to), max(from, to)
	// The answers for versions that cannot be served are the ones
	// Version(lo) and then DeltasBetween(lo, hi) give.
	err = st.checkVersion(id, lo)
	if err == nil {
		err = st.checkRange(id, lo, hi)
	}
	if err == nil && hi-lo == 1 {
		d, err := s.decodeDelta(st, lo-1)
		st.mu.RUnlock()
		if err != nil || from < to {
			return d, err
		}
		if d, err = d.Invert(); err != nil {
			return nil, fmt.Errorf("vstore: aggregate %s %d..%d: %w", id, from, to, err)
		}
		return d, nil
	}
	var older, newer *dom.Node
	if err == nil {
		_, err = s.read(id, st, []int{lo, hi}, func(v int, d *dom.Node, own bool) error {
			if v == lo {
				older = private(d, own)
			} else {
				newer = private(d, own)
			}
			return nil
		})
	}
	st.mu.RUnlock() // the trees are private copies: matching them needs no lock
	if err != nil {
		return nil, err
	}
	d, err := compose(older, newer, from > to)
	if err != nil {
		return nil, fmt.Errorf("vstore: aggregate %s %d..%d: %w", id, from, to, err)
	}
	return d, nil
}

// compose is the aggregate of the chain between two private versions
// of a document, older first, inverted when asked.
func compose(older, newer *dom.Node, inverted bool) (*delta.Delta, error) {
	d, err := diff.ComposeVersions(older, newer)
	if err != nil || !inverted {
		return d, err
	}
	return d.Invert()
}

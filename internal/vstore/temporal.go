package vstore

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
	"xydiff/internal/xpathlite"
)

// "Querying the past" over the sharded engine: the same API as the
// per-document store, with deltas parsed on demand from their stored
// bytes. Result types (store.VersionValue, store.NodeState,
// store.ChangeHit) are shared so callers are engine-agnostic.

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

// Timeline evaluates the expression at every version, oldest first.
// Versions are reconstructed incrementally (one delta apply per step),
// not from scratch per version.
func (s *Store) Timeline(id string, expr *xpathlite.Expr) ([]store.VersionValue, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	latest, err := s.materializeLocked(id, st)
	if err != nil {
		return nil, err
	}
	out := make([]store.VersionValue, st.versions)
	doc := latest.Clone()
	r := delta.NewReplay(doc)
	for v := st.versions; v >= 1; v-- {
		first := expr.SelectFirst(doc)
		out[v-1] = store.VersionValue{Version: v, Found: first != nil}
		if first != nil {
			out[v-1].Value = first.TextContent()
		}
		if v > 1 {
			if err := st.rewind(r, v, v-1); err != nil {
				return nil, fmt.Errorf("vstore: timeline %s at version %d: %w", id, v-1, err)
			}
		}
	}
	return out, nil
}

// NodeHistory tracks a node across every version by its persistent
// identifier: present or not, where it lives, and what it contains.
func (s *Store) NodeHistory(id string, xid int64) ([]store.NodeState, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	latest, err := s.materializeLocked(id, st)
	if err != nil {
		return nil, err
	}
	out := make([]store.NodeState, st.versions)
	doc := latest.Clone()
	r := delta.NewReplay(doc)
	for v := st.versions; v >= 1; v-- {
		ns := store.NodeState{Version: v}
		if n := dom.FindByXID(doc, xid); n != nil {
			ns.Present = true
			ns.Path = n.Path()
			ns.Value = n.TextContent()
		}
		out[v-1] = ns
		if v > 1 {
			if err := st.rewind(r, v, v-1); err != nil {
				return nil, fmt.Errorf("vstore: history %s at version %d: %w", id, v-1, err)
			}
		}
	}
	return out, nil
}

// ChangesMatching scans the deltas between versions from and to
// (forward, from < to) and returns the operations whose affected node
// matches the pattern. An empty kinds list selects every operation
// kind.
func (s *Store) ChangesMatching(id string, from, to int, pattern *xpathlite.Expr, kinds ...delta.Kind) ([]store.ChangeHit, error) {
	st, err := s.reading(id)
	if err != nil {
		return nil, err
	}
	defer st.mu.RUnlock()
	if from < 1 || to > st.versions || from >= to {
		return nil, fmt.Errorf("vstore: bad version range %d..%d (have 1..%d): %w", from, to, st.versions, store.ErrNoSuchVersion)
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
	latest, err := s.materializeLocked(id, st)
	if err != nil {
		return nil, err
	}
	// Reconstruct version `from` backward from latest, then replay
	// forward, inspecting each delta against the version before and
	// after it.
	doc := latest.Clone()
	if err := st.rewind(delta.NewReplay(doc), st.versions, from); err != nil {
		return nil, fmt.Errorf("vstore: reconstruct %s version %d: %w", id, from, err)
	}
	var hits []store.ChangeHit
	for v := from; v < to; v++ {
		d, err := st.parseDelta(v - 1)
		if err != nil {
			return nil, err
		}
		next := doc.Clone()
		if err := delta.Apply(next, d); err != nil {
			return nil, fmt.Errorf("vstore: replay %s delta %d: %w", id, v, err)
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
			hits = append(hits, store.ChangeHit{Version: v + 1, Op: op, Path: path})
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
// serve; the others get Version's error. Each stored delta between the latest version and the
// older end is decoded once: the walk back from the latest version
// passes through the newer end on its way to the older one, and those
// two trees are all diff.ComposeVersions needs.
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
	older, newer, err := s.endpoints(id, st, lo, hi)
	st.mu.RUnlock() // the trees are private copies: matching them needs no lock
	if err != nil {
		return nil, err
	}
	d, err := diff.ComposeVersions(older, newer)
	if err != nil {
		return nil, err
	}
	if from > to {
		if d, err = d.Invert(); err != nil {
			return nil, fmt.Errorf("vstore: aggregate %s %d..%d: %w", id, from, to, err)
		}
	}
	return d, nil
}

// endpoints reconstructs versions lo and hi (lo < hi) of the document
// in one walk back from the latest version. The answers for versions
// that cannot be served are the ones Version(lo) and then
// DeltasBetween(lo, hi) give. The caller holds the state lock.
func (s *Store) endpoints(id string, st *docState, lo, hi int) (older, newer *dom.Node, err error) {
	if err := st.checkVersion(id, lo); err != nil {
		return nil, nil, err
	}
	if err := st.checkRange(id, lo, hi); err != nil {
		return nil, nil, err
	}
	latest, err := s.materializeLocked(id, st)
	if err != nil {
		return nil, nil, err
	}
	older = latest.Clone()
	r := delta.NewReplay(older)
	if err := st.rewind(r, st.versions, hi); err != nil {
		return nil, nil, fmt.Errorf("vstore: reconstruct %s version %d: %w", id, hi, err)
	}
	newer = older.Clone()
	if err := st.rewind(r, hi, lo); err != nil {
		return nil, nil, fmt.Errorf("vstore: reconstruct %s version %d: %w", id, lo, err)
	}
	return older, newer, nil
}

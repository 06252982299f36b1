package vstore

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// The read walk: how every read reconstructs the versions it asks for
// from a document's stored chain. Completed deltas run both ways
// (PAPER.md §2, §4), so a version is reachable forward from the stored
// base as well as backward from the cached latest version. A read
// names its target versions; the walk reaches the older ones forward
// from the base and the newer ones backward from the latest, split
// where that decodes the fewest resident bytes: frames, which the walk
// thaws (resident.go), or XML not yet decoded since the store opened.

// A visitor receives each target version the walk reaches. doc is the
// walk's working tree at version v, or the cached latest version when
// the target is the latest: visit may read it, and keep it only when
// own is true — the walk is done with it. Otherwise the walk goes on
// changing it, or the cache holds it, so visit must change nothing and
// copy what it keeps.
type visitor func(v int, doc *dom.Node, own bool) error

// private is doc when the visitor owns it, and a copy otherwise.
func private(doc *dom.Node, own bool) *dom.Node {
	if own {
		return doc
	}
	return doc.Clone()
}

// read runs one read's walk over targets (ascending, within
// 1..st.versions) and returns the latest version, the cache's tree. It
// looks that tree up — one cache hit or one miss per read. A miss
// restores the tree from the document's keyframe when one is current.
// With the latest version in hand the walk is planned; without it the
// walk replays the whole chain forward, visiting the targets on the
// way. A miss caches the latest version, unless a stored delta after the
// last target fails: the read is served, and returns nil for the
// latest version. The caller holds the state lock.
func (s *Store) read(id string, st *docState, targets []int, visit visitor) (*dom.Node, error) {
	latest := s.cache.get(id, st.versions)
	cached := latest != nil
	if cached {
		s.stats.cacheHits.Add(1)
	} else {
		s.stats.cacheMisses.Add(1)
		latest = s.cache.restore(id, st.versions)
	}
	fwd := len(targets)
	if latest != nil {
		fwd = st.plan(targets)
	}
	doc, decoded, err := st.walk(latest, targets, fwd, visit)
	s.stats.deltasDecoded.Add(int64(decoded))
	if err != nil {
		switch len(targets) {
		case 0:
			return nil, fmt.Errorf("vstore: materialize %s: %w", id, err)
		case 1:
			return nil, fmt.Errorf("vstore: reconstruct %s version %d: %w", id, targets[0], err)
		}
		return nil, fmt.Errorf("vstore: reconstruct %s versions %d..%d: %w", id, targets[0], targets[len(targets)-1], err)
	}
	if !cached && doc != nil {
		s.cache.put(id, doc, st.versions)
	}
	return doc, nil
}

// plan returns how many of targets (ascending) the walk should reach
// forward from the base; it reaches the rest backward from the latest
// version. The cost of a split is the XML bytes of the parts it
// decodes: the base when any target goes forward, plus every delta
// crossed. A part weighs its XML's length whether it is held as a frame
// or as XML, so a plan does not depend on which parts a walk has
// decoded so far, and per XML byte a base and a delta step cost about
// the same either way. The copy of the latest version a backward walk
// starts from is not counted. DESIGN.md has the measured rates behind
// these choices. Ties go backward.
func (st *docState) plan(targets []int) int {
	if len(targets) == 0 {
		return 0
	}
	total := 0
	for _, d := range st.deltas {
		total += d.xmlLen()
	}
	// upTo(v) is the bytes of the deltas from version 1 to v. targets
	// ascend, so one cursor serves every call.
	i, sum := 0, 0
	upTo := func(v int) int {
		for ; i < v-1; i++ {
			sum += st.deltas[i].xmlLen()
		}
		return sum
	}
	fwd, best := 0, total-upTo(targets[0])
	for k := 1; k <= len(targets); k++ {
		cost := st.base.xmlLen() + upTo(targets[k-1])
		if k < len(targets) {
			cost += total - upTo(targets[k])
		}
		if cost < best {
			fwd, best = k, cost
		}
	}
	return fwd
}

// walk is the walk's executor. It reaches targets[:fwd] forward from
// the base, oldest first, and targets[fwd:] backward from latest,
// newest first, calling visit at each. latest is the cached latest
// version, which the walk copies and never changes. With latest nil —
// a cache miss with no keyframe to restore — every target is reached
// forward whatever fwd says, and the walk goes on to the latest version
// and returns it — or nil when a step after the last target fails, so a
// delta that does not decode or apply fails only the reads that need
// it. A backward walk copies latest only once it has a step to take: a
// target at the latest version is visited on latest itself. The walk
// steps through each delta in line, one after the other: each step
// needs the tree the last one left. decoded is how many stored deltas
// the walk stepped through. The caller holds the state lock.
func (st *docState) walk(latest *dom.Node, targets []int, fwd int, visit visitor) (_ *dom.Node, decoded int, _ error) {
	if latest == nil {
		fwd = len(targets)
	}
	step := func(r *delta.Replay, n int, backward bool) error {
		decoded++
		return st.step(r, n, backward)
	}
	if fwd > 0 || latest == nil {
		doc, err := st.baseTree()
		if err != nil {
			return nil, decoded, err
		}
		r := delta.NewReplay(doc)
		v := 1
		for k, t := range targets[:fwd] {
			for ; v < t; v++ {
				if err := step(r, v, false); err != nil {
					return nil, decoded, err
				}
			}
			if err := visit(t, doc, latest != nil && k == fwd-1); err != nil {
				return nil, decoded, err
			}
		}
		if latest == nil {
			for ; v < st.versions; v++ {
				if err := step(r, v, false); err != nil {
					if len(targets) > 0 {
						// Every target is visited: the read stands,
						// and only the latest version is not cached.
						return nil, decoded, nil
					}
					return nil, decoded, err
				}
			}
			return doc, decoded, nil
		}
	}
	if fwd < len(targets) {
		doc, r := latest, (*delta.Replay)(nil)
		v := st.versions
		for k := len(targets) - 1; k >= fwd; k-- {
			for ; v > targets[k]; v-- {
				if r == nil {
					doc = latest.Clone()
					r = delta.NewReplay(doc)
				}
				if err := step(r, v-1, true); err != nil {
					return nil, decoded, err
				}
			}
			if err := visit(targets[k], doc, k == fwd && r != nil); err != nil {
				return nil, decoded, err
			}
		}
	}
	return latest, decoded, nil
}

// step steps r's document through stored delta n, the one from version
// n to n+1: forward, or backward through its inverse. A delta held as a
// frame is thawed for the step (thawer.thawStep): the subtrees the step
// attaches are built, and those it detaches are compared with the
// document in the frame. One held as XML is decoded whole (delta). The
// caller holds the state lock.
func (st *docState) step(r *delta.Replay, n int, backward bool) error {
	var d *delta.Delta
	var differs func(int, *dom.Node) string
	var err error
	var t thawer
	if f := st.deltas[n-1].form.Load(); f.frame {
		if d, err = t.thawStep(f.b, backward); err != nil {
			return fmt.Errorf("vstore: thaw stored delta %d: %w", n, err)
		}
		differs = t.differs
	} else if d, err = st.delta(n - 1); err != nil {
		return err
	}
	if err := r.Step(d, backward, differs); err != nil {
		return fmt.Errorf("delta %d does not apply: %w", n, err)
	}
	return nil
}

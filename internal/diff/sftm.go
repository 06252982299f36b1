package diff

import (
	"errors"
	"fmt"
	"time"

	"xydiff/internal/dom"
	"xydiff/internal/sftm"
)

// diffSFTM is the MatcherSFTM arm of DiffDetailed: the sftm package
// computes the matching, and the result flows through exactly the
// machinery FromMatching uses — compatibility filter, then the shared
// Phase 5 delta construction — so deltas, Apply, XID assignment and
// storage behave identically for both matchers.
//
// Timings map onto the BULD phases: Phase2 is tree annotation, Phase3
// the SFTM pipeline (tokenize/index/propagate/greedy) plus committing
// its index arrays to the matcher, Phase5 delta construction. Phases 1
// and 4 have no SFTM counterpart and stay zero.
func diffSFTM(oldDoc, newDoc *dom.Node, opts Options) (*Result, error) {
	r := Result{Matcher: MatcherSFTM}

	start := time.Now()
	m := newMatcher(oldDoc, newDoc, opts, false)
	defer m.release()
	r.Timings.Phase2 = time.Since(start)
	if opts.canceled() {
		return nil, errCanceled
	}

	start = time.Now()
	if err := m.matchSFTM(); err != nil {
		return nil, err
	}
	r.Timings.Phase3 = time.Since(start)
	if opts.canceled() {
		return nil, errCanceled
	}

	start = time.Now()
	r.Delta = m.buildDelta()
	r.Timings.Phase5 = time.Since(start)

	r.OldNodes, r.NewNodes = m.old.len(), m.new.len()
	for _, ni := range m.oldToNew {
		if ni >= 0 {
			r.MatchedNodes++
		}
	}
	return &r, nil
}

// runSFTM is sftm.Match with the diff package's error conventions: the
// one place both SFTM arms (diffSFTM and Matching) enter the matcher.
func runSFTM(oldDoc, newDoc *dom.Node, done <-chan struct{}) (*sftm.Result, error) {
	res, err := sftm.Match(oldDoc, newDoc, done)
	if errors.Is(err, sftm.ErrCanceled) {
		return nil, errCanceled
	}
	if err != nil {
		return nil, fmt.Errorf("diff: sftm matcher: %w", err)
	}
	return res, nil
}

// matchSFTM commits the sftm matching of the two trees' documents to
// m. sftm numbers nodes in pre-order, document first; postOfPre
// translates to the trees' post-order. The documents arrive as the
// pair (0, 0) like any other.
func (m *matcher) matchSFTM() error {
	res, err := runSFTM(m.old.doc, m.new.doc, m.opts.done)
	if err != nil {
		return err
	}
	oldPost, newPost := postOfPre(m.old), postOfPre(m.new)
	for oi, ni := range res.OldToNew {
		if ni < 0 {
			continue
		}
		if o, n := int(oldPost[oi]), int(newPost[ni]); m.compatible(o, n) {
			m.setMatch(o, n)
		}
	}
	return nil
}

// postOfPre maps pre-order positions (document first, as package sftm
// numbers nodes) to t's post-order indexes.
func postOfPre(t *tree) []int32 {
	post := make([]int32, 0, t.len())
	t.walkPre(t.root(), func(i int) bool {
		post = append(post, int32(i))
		return true
	})
	return post
}

// Matching runs only the matching stage of the selected matcher and
// returns the old→new node pairs, documents excluded. The matcher sweep
// of internal/bench's TestQualityPinned uses it to score precision and
// recall against changesim's ground-truth correspondences without going
// through delta construction.
//
//xyvet:allow testonly,localexport -- the matching stage alone, scored by TestQualityPinned's precision and recall and FuzzBULDMatchingDifferential; it needs the matchers' unexported phases
func Matching(oldDoc, newDoc *dom.Node, opts Options) (map[*dom.Node]*dom.Node, error) {
	if err := checkDocuments(oldDoc, newDoc); err != nil {
		return nil, err
	}
	switch opts.matcher() {
	case MatcherSFTM:
		res, err := runSFTM(oldDoc, newDoc, opts.done)
		if err != nil {
			return nil, err
		}
		pairs := make(map[*dom.Node]*dom.Node, len(res.New))
		for oi, ni := range res.OldToNew {
			if oi > 0 && ni >= 0 {
				pairs[res.Old[oi]] = res.New[ni]
			}
		}
		return pairs, nil
	case MatcherBULD:
	default:
		return nil, fmt.Errorf("diff: unknown matcher %q", opts.Matcher)
	}

	m := newMatcher(oldDoc, newDoc, opts, true)
	defer m.release()
	if opts.canceled() {
		return nil, errCanceled
	}
	m.phase1IDs()
	m.phase3BULD()
	m.phase4Propagate()
	if opts.canceled() {
		return nil, errCanceled
	}
	pairs := make(map[*dom.Node]*dom.Node, m.new.len())
	for oi, ni := range m.oldToNew {
		if ni < 0 {
			continue
		}
		o, n := m.old.nodes[oi], m.new.nodes[ni]
		if o.Type == dom.Document {
			continue
		}
		pairs[o] = n
	}
	return pairs, nil
}

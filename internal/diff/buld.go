package diff

import (
	"fmt"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// PhaseTimings records where the wall-clock time of one diff went,
// mirroring the decomposition of the paper's Figure 4.
type PhaseTimings struct {
	Phase1 time.Duration // ID attribute matching + propagation
	Phase2 time.Duration // tree annotation (signatures, weights) and BULD's signature indexes
	Phase3 time.Duration // BULD matching loop
	Phase4 time.Duration // bottom-up / top-down propagation
	Phase5 time.Duration // delta construction
}

// Total sums the phase durations.
func (p PhaseTimings) Total() time.Duration {
	return p.Phase1 + p.Phase2 + p.Phase3 + p.Phase4 + p.Phase5
}

// Result carries the delta plus the measurements the experiments use.
type Result struct {
	Delta   *delta.Delta
	Timings PhaseTimings

	// Matcher is the algorithm that produced the matching.
	Matcher Matcher
	// OldNodes and NewNodes are total node counts (document included).
	OldNodes, NewNodes int
	// MatchedNodes counts old nodes that found a counterpart.
	MatchedNodes int
}

// Diff computes the changes that transform oldDoc into newDoc and
// returns them as a completed delta.
//
// Both arguments must be Document nodes. Diff assigns persistent
// identifiers as a side effect: oldDoc receives post-order XIDs if it
// has none yet, and newDoc's nodes receive their XIDs (inherited
// through the matching, or fresh for inserted nodes) so the caller can
// diff the next version against newDoc directly.
func Diff(oldDoc, newDoc *dom.Node, opts Options) (*delta.Delta, error) {
	r, err := DiffDetailed(oldDoc, newDoc, opts)
	if err != nil {
		return nil, err
	}
	return r.Delta, nil
}

// DiffDetailed is Diff with per-phase timings and matching statistics.
func DiffDetailed(oldDoc, newDoc *dom.Node, opts Options) (*Result, error) {
	if oldDoc == nil || newDoc == nil {
		return nil, fmt.Errorf("diff: nil document")
	}
	if oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return nil, fmt.Errorf("diff: arguments must be Document nodes (got %v, %v)", oldDoc.Type, newDoc.Type)
	}
	switch opts.matcher() {
	case MatcherBULD:
	case MatcherSFTM:
		return diffSFTM(oldDoc, newDoc, opts)
	default:
		return nil, fmt.Errorf("diff: unknown matcher %q", opts.Matcher)
	}
	var r Result
	r.Matcher = MatcherBULD

	// Phase 2 first in execution order: the annotation arrays and the
	// signature indexes are the substrate every other phase works on.
	start := time.Now()
	m := newMatcher(oldDoc, newDoc, opts, true)
	defer m.release()
	r.Timings.Phase2 = time.Since(start)
	if opts.canceled() {
		return nil, errCanceled
	}

	start = time.Now()
	m.phase1IDs()
	r.Timings.Phase1 = time.Since(start)
	if opts.canceled() {
		return nil, errCanceled
	}

	start = time.Now()
	m.phase3BULD()
	r.Timings.Phase3 = time.Since(start)
	if opts.canceled() {
		return nil, errCanceled
	}

	start = time.Now()
	m.phase4Propagate()
	r.Timings.Phase4 = time.Since(start)
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

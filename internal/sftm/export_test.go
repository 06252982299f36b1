package sftm

import "xydiff/internal/dom"

// ScoredCandidate is one candidate as the greedy stage sees it.
type ScoredCandidate struct {
	Old         int32 // pre-order index in the old document
	Base, Score float64
}

// CandidateScores runs the pipeline through propagation and returns
// every new node's candidate list, so the oracle can compare the
// floats themselves with the reference's — a changed summation order
// shows there long before it flips a pair.
func CandidateScores(oldDoc, newDoc *dom.Node) [][]ScoredCandidate {
	m := newMatcher(oldDoc, newDoc, nil)
	m.tokenize()
	m.buildIndex()
	m.selectCandidates()
	m.propagate()
	out := make([][]ScoredCandidate, m.new.len())
	for ni := range out {
		for _, c := range m.candsOf(int32(ni)) {
			out[ni] = append(out[ni], ScoredCandidate{c.o, c.base, c.score})
		}
	}
	return out
}

// Counts returns how many candidate pairs a matching scored and how
// many tokens the frequency cutoff pruned, for the tests that hold them
// to the reference.
func Counts(r *Result) (candidates, stopTokens int) { return r.candidates, r.stopTokens }

// Package diff implements BULD ("Bottom-Up, Lazy-Down"), the paper's
// diff algorithm for XML documents (Section 5). Given two versions of
// a document it computes a matching between their nodes and derives a
// completed delta (package delta) with insert, delete, update, move and
// attribute operations.
//
// The five phases follow the paper:
//
//  1. match nodes carrying DTD-declared ID attributes;
//  2. compute subtree signatures and weights, seed a priority queue
//     with the new document's subtrees;
//  3. pop subtrees heaviest-first and match them against old subtrees
//     with identical signatures, choosing the candidate closest to the
//     existing matching and propagating accepted matches to ancestors
//     (bounded by subtree weight);
//  4. structure-based bottom-up and top-down propagation passes;
//  5. construct the delta, using a maximum-weight increasing
//     subsequence to emit an optimal set of intra-parent moves (or the
//     paper's windowed heuristic for very long child lists).
package diff

import (
	"fmt"

	"xydiff/internal/dtd"
)

// defaultLISWindow is the paper's block length for the intra-parent
// move heuristic ("a maximum length (e.g. 50)").
const defaultLISWindow = 50

// Matcher selects the node-matching algorithm. Every matcher feeds the
// same Phase 5 delta construction, so the choice changes which nodes
// correspond — never the delta format, Apply semantics, or storage.
type Matcher string

const (
	// MatcherBULD is the paper's matcher: exact subtree signatures,
	// heaviest-first matching, ID attributes when a DTD declares them.
	// The default; best for well-formed XML.
	MatcherBULD Matcher = "buld"

	// MatcherSFTM is the similarity-based flexible matcher (package
	// sftm): IDF-weighted token overlap with structural propagation.
	// Built for real-web HTML, where nothing is well-formed, IDs are
	// absent or unstable, and text is rewritten in place.
	MatcherSFTM Matcher = "sftm"
)

// ParseMatcher normalizes a user-supplied matcher name. The empty
// string selects the default (BULD).
func ParseMatcher(s string) (Matcher, error) {
	switch Matcher(s) {
	case "", MatcherBULD:
		return MatcherBULD, nil
	case MatcherSFTM:
		return MatcherSFTM, nil
	}
	return "", fmt.Errorf("diff: unknown matcher %q (want %q or %q)", s, MatcherBULD, MatcherSFTM)
}

// Matchers lists the valid matcher names, default first.
func Matchers() []Matcher {
	return []Matcher{MatcherBULD, MatcherSFTM}
}

// Options tune the algorithm. The zero value reproduces the paper's
// configuration.
type Options struct {
	// Matcher selects the matching algorithm. Empty selects
	// MatcherBULD, the paper's algorithm; MatcherSFTM switches to the
	// similarity-based flexible matcher for real-web HTML.
	Matcher Matcher

	// IDAttrs declares ID attributes explicitly (element name -> ID
	// attribute name), in addition to any discovered from the old
	// document's internal DTD subset.
	IDAttrs dtd.IDAttrs

	// DisableIDAttributes skips Phase 1 entirely (ablation: the paper
	// notes ID attributes decide most matches when present).
	DisableIDAttributes bool

	// LISWindow bounds the exact maximum-weight-increasing-subsequence
	// computation for intra-parent move detection. Child lists longer
	// than the window use the paper's block heuristic. 0 selects
	// DefaultLISWindow; a negative value forces the exact algorithm
	// regardless of length.
	LISWindow int

	// PropagationPasses is the number of bottom-up/top-down rounds in
	// Phase 4. 0 selects the paper's single round.
	PropagationPasses int

	// EagerDown disables the "lazy down" strategy: after every accepted
	// match, unique-label children are matched immediately instead of
	// waiting for Phase 4 (ablation; the paper argues lazy is what
	// keeps the algorithm quasi-linear).
	EagerDown bool

	// MaxAncestorDepth overrides the weight-dependent bound
	// d = 1 + ceil(log2(n) * W/W0) used both for candidate evaluation
	// and for bottom-up ancestor matching. 0 keeps the formula.
	MaxAncestorDepth int

	// Deprecated: ignored — every diff is sequential. Kept only until benchmark/ stops setting it.
	Workers int

	// keepNewXIDs makes delta construction retain non-zero XIDs already
	// present on unmatched new nodes instead of allocating fresh ones.
	// Compose uses it so an aggregated delta assigns the same
	// identifiers the original chain did.
	keepNewXIDs bool

	// done, when non-nil, aborts the diff once the channel closes
	// (between phases and periodically inside the Phase 3 loop). Set
	// through DiffDetailedContext.
	done <-chan struct{}
}

func (o Options) lisWindow() int {
	switch {
	case o.LISWindow < 0:
		return 1 << 30 // effectively unbounded: exact everywhere
	case o.LISWindow == 0:
		return defaultLISWindow
	default:
		return o.LISWindow
	}
}

func (o Options) passes() int {
	if o.PropagationPasses <= 0 {
		return 1
	}
	return o.PropagationPasses
}

func (o Options) matcher() Matcher {
	if o.Matcher == "" {
		return MatcherBULD
	}
	return o.Matcher
}

// Package optdelta computes the exact minimum cost of an edit script
// between two small XML trees, in the SAT-DIFF spirit of holding a
// heuristic differ against a provably optimal answer. Where the bench
// harness previously compared BULD and SFTM deltas only to changesim's
// scripted "perfect" delta, this oracle gives the true optimum — so
// optimality can be reported as a ratio rather than an article of
// faith.
//
// The search runs over injective matchings between the two node sets
// rather than over scripts: every edit script induces a matching (the
// nodes whose identity survives), and the cost formula below charges
// each induced matching no more than the script pays. Minimizing over
// all matchings therefore lower-bounds every script, and the minimum
// is itself achievable by a script, so it is exact.
//
// Cost model (mirroring ScriptCost, which charges delta operations the
// way package delta serializes them):
//
//   - unmatched old node: 1 (deleted content is carried per node)
//   - unmatched new node: 1 (inserted content is carried per node)
//   - matched text/comment/PI with different value: 1 update
//   - matched elements: 1 per attribute inserted, deleted or updated
//   - matched node whose parents' matches disagree: 1 move (reparent)
//   - per matched parent pair: k − LIS(k) moves to reorder the k
//     children that stay under it (minimum number of single-subtree
//     moves that sorts them)
//
// Elements only match elements with the same tag — no delta operation
// renames a node — and a whole moved subtree costs one move because
// its interior pairs keep consistent parents.
//
// The search is a branch-and-bound over old nodes in BFS order, so
// each node's parent is decided before it (reparent moves price at
// assignment time) and each parent's children occupy a contiguous
// index block (reorder moves price when the block completes).
// Deliberately NOT memoized on (index, used-set) state: move costs
// depend on which old node holds which new node, not just on which new
// nodes are taken, so two search states with equal (index, used-set)
// can have different completion costs and a dominance cache would be
// unsound. Pair costs and candidate lists are precomputed instead, and
// a state budget keeps worst cases bounded at the price of an honest
// Exact=false.
package optdelta

import (
	"errors"
	"fmt"
	"math/bits"
	"sort"

	"xydiff/internal/dom"
)

// errTooLarge reports a tree over the node cap. Exact optimal diffing
// is exponential in the worst case; the oracle stays honest by
// refusing rather than silently approximating.
var errTooLarge = errors.New("optdelta: tree exceeds MaxNodes")

// DefaultMaxNodes is the per-tree node cap (document root excluded).
//
//xyvet:allow localexport -- the oracle API internal/bench's TestQualityPinned calls
const DefaultMaxNodes = 25

// DefaultMaxStates bounds the branch-and-bound search.
//
//xyvet:allow localexport -- the oracle API internal/bench's TestQualityPinned calls
const DefaultMaxStates = 2_000_000

// Options tunes the oracle.
//
//xyvet:allow localexport -- with its fields, the oracle API internal/bench's TestQualityPinned calls
type Options struct {
	// MaxNodes caps each tree's node count, document root excluded.
	// Zero means DefaultMaxNodes; values above 63 are clamped (the
	// search keeps the matched set in one machine word).
	MaxNodes int
	// MaxStates caps visited search states; zero means
	// DefaultMaxStates. When exceeded, Result.Exact is false and
	// Result.Cost is the best achievable cost found so far.
	MaxStates int64
	// UpperBound, when positive, is a known achievable script cost
	// (e.g. ScriptCost of a computed delta) used to seed pruning. It
	// must come from a real script or the result may overstate.
	UpperBound int
}

// Result is the oracle's answer.
//
//xyvet:allow localexport -- with its fields, the oracle API internal/bench's TestQualityPinned calls
type Result struct {
	// Cost of the cheapest edit script found; the true optimum when
	// Exact.
	Cost int
	// Exact reports that the search proved minimality within the
	// state budget.
	Exact bool
	// States visited by the branch-and-bound.
	States int64
}

// Optimal returns the minimum edit-script cost transforming oldDoc
// into newDoc. Both must be Document nodes within Options.MaxNodes.
//
//xyvet:allow testonly,localexport -- the exact minimum-cost oracle TestQualityPinned and FuzzOptDeltaSound hold the matchers' deltas to
func Optimal(oldDoc, newDoc *dom.Node, opts Options) (Result, error) {
	if oldDoc == nil || newDoc == nil ||
		oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return Result{}, errors.New("optdelta: need two Document nodes")
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = DefaultMaxNodes
	}
	if maxNodes > 63 {
		maxNodes = 63
	}
	if n := oldDoc.Size() - 1; n > maxNodes {
		return Result{}, fmt.Errorf("%w: old tree has %d nodes, cap %d", errTooLarge, n, maxNodes)
	}
	if n := newDoc.Size() - 1; n > maxNodes {
		return Result{}, fmt.Errorf("%w: new tree has %d nodes, cap %d", errTooLarge, n, maxNodes)
	}
	s := newSearcher(oldDoc, newDoc, opts)
	s.dfs(0, 0)
	return Result{Cost: s.best, Exact: !s.stopped, States: s.states}, nil
}

type searcher struct {
	oldN, newN  []*dom.Node
	oldParent   []int // index into oldN; -1 = document
	newParent   []int // index into newN; -1 = document
	newChildPos []int // position among the new parent's children
	blockStart  []int // first old index sharing oldParent[i]
	blockLast   []bool
	pairCost    [][]int // -1 = incompatible
	compat      [][]int // candidate js per old node, cheapest first
	suffixMin   []int   // admissible per-old-node cost floor, summed
	assigned    []int
	used        uint64
	best        int
	states      int64
	maxStates   int64
	stopped     bool
}

// bfs lists a document's descendants level by level, so parents
// precede children and each parent's children are contiguous.
func bfs(doc *dom.Node) (nodes []*dom.Node, parent []int) {
	idx := make(map[*dom.Node]int)
	queue := append([]*dom.Node{}, doc.Children...)
	for qi := 0; qi < len(queue); qi++ {
		n := queue[qi]
		idx[n] = len(nodes)
		nodes = append(nodes, n)
		p := -1
		if n.Parent != doc {
			p = idx[n.Parent]
		}
		parent = append(parent, p)
		queue = append(queue, n.Children...)
	}
	return nodes, parent
}

func newSearcher(oldDoc, newDoc *dom.Node, opts Options) *searcher {
	s := &searcher{maxStates: opts.MaxStates}
	if s.maxStates <= 0 {
		s.maxStates = DefaultMaxStates
	}
	s.oldN, s.oldParent = bfs(oldDoc)
	s.newN, s.newParent = bfs(newDoc)
	s.newChildPos = make([]int, len(s.newN))
	for j, n := range s.newN {
		s.newChildPos[j] = n.Index()
	}
	s.blockStart = make([]int, len(s.oldN))
	s.blockLast = make([]bool, len(s.oldN))
	for i := range s.oldN {
		if i > 0 && s.oldParent[i] == s.oldParent[i-1] {
			s.blockStart[i] = s.blockStart[i-1]
		} else {
			s.blockStart[i] = i
		}
		s.blockLast[i] = i == len(s.oldN)-1 || s.oldParent[i+1] != s.oldParent[i]
	}
	s.pairCost = make([][]int, len(s.oldN))
	s.compat = make([][]int, len(s.oldN))
	s.suffixMin = make([]int, len(s.oldN)+1)
	for i := len(s.oldN) - 1; i >= 0; i-- {
		s.pairCost[i] = make([]int, len(s.newN))
		minCost := 1 // deleting is always possible
		for j := range s.newN {
			c := pairCost(s.oldN[i], s.newN[j])
			s.pairCost[i][j] = c
			if c >= 0 {
				s.compat[i] = append(s.compat[i], j)
				if c < minCost {
					minCost = c
				}
			}
		}
		// Candidates cheapest-first so the first complete assignment
		// is already good and prunes aggressively.
		row := s.pairCost[i]
		sort.SliceStable(s.compat[i], func(a, b int) bool {
			return row[s.compat[i][a]] < row[s.compat[i][b]]
		})
		s.suffixMin[i] = s.suffixMin[i+1] + minCost
	}
	s.assigned = make([]int, len(s.oldN))
	// Delete-everything, insert-everything is always achievable.
	s.best = len(s.oldN) + len(s.newN)
	if opts.UpperBound > 0 && opts.UpperBound < s.best {
		s.best = opts.UpperBound
	}
	return s
}

// pairCost is the cost of matching old node a to new node b, or -1
// when no edit script can keep a's identity while producing b.
func pairCost(a, b *dom.Node) int {
	if a.Type != b.Type {
		return -1
	}
	switch a.Type {
	case dom.Element:
		if a.Name != b.Name {
			return -1
		}
		return attrDiff(a, b)
	case dom.Text, dom.Comment:
		if a.Value == b.Value {
			return 0
		}
		return 1
	case dom.ProcInst:
		if a.Name != b.Name {
			return -1
		}
		if a.Value == b.Value {
			return 0
		}
		return 1
	}
	return -1
}

// attrDiff counts the attribute operations turning a's attributes
// into b's: one per inserted, deleted or value-changed attribute.
func attrDiff(a, b *dom.Node) int {
	cost := 0
	for _, attr := range a.Attrs {
		if v, ok := b.Attribute(attr.Name); !ok || v != attr.Value {
			cost++
		}
	}
	for _, attr := range b.Attrs {
		if _, ok := a.Attribute(attr.Name); !ok {
			cost++
		}
	}
	return cost
}

func (s *searcher) dfs(i, cost int) {
	if s.stopped {
		return
	}
	s.states++
	if s.states > s.maxStates {
		s.stopped = true
		return
	}
	matched := bits.OnesCount64(s.used)
	if i == len(s.oldN) {
		if total := cost + len(s.newN) - matched; total < s.best {
			s.best = total
		}
		return
	}
	lb := cost + s.suffixMin[i]
	if extra := (len(s.newN) - matched) - (len(s.oldN) - i); extra > 0 {
		lb += extra
	}
	if lb >= s.best {
		return
	}
	for _, j := range s.compat[i] {
		bit := uint64(1) << uint(j)
		if s.used&bit != 0 {
			continue
		}
		s.assigned[i] = j
		s.used |= bit
		step := s.pairCost[i][j] + s.moveCost(i, j)
		if s.blockLast[i] {
			step += s.orderCost(i)
		}
		s.dfs(i+1, cost+step)
		s.used &^= bit
	}
	s.assigned[i] = -1
	step := 1
	if s.blockLast[i] {
		step += s.orderCost(i)
	}
	s.dfs(i+1, cost+step)
}

// moveCost prices the reparent move for matching old i to new j: one
// move when i's parent's match is not j's parent (including a deleted
// parent). BFS order guarantees the parent was decided first.
func (s *searcher) moveCost(i, j int) int {
	pi := s.oldParent[i]
	pj := s.newParent[j]
	if pi == -1 {
		if pj == -1 {
			return 0
		}
		return 1
	}
	if pm := s.assigned[pi]; pm != -1 && pm == pj {
		return 0
	}
	return 1
}

// orderCost prices sibling reordering once a parent's whole child
// block is decided: among the children that stay under the matched
// parent, every one outside a longest increasing subsequence of new
// positions needs its own move.
func (s *searcher) orderCost(i int) int {
	p := s.oldParent[i]
	pj := -1
	if p != -1 {
		pj = s.assigned[p]
		if pj == -1 {
			return 0 // parent deleted: matched children already paid moves
		}
	}
	var seq []int
	for k := s.blockStart[i]; k <= i; k++ {
		j := s.assigned[k]
		if j >= 0 && s.newParent[j] == pj {
			seq = append(seq, s.newChildPos[j])
		}
	}
	return len(seq) - lisLen(seq)
}

// lisLen is the length of the longest strictly increasing subsequence
// (O(n²), n ≤ 63 here).
func lisLen(seq []int) int {
	if len(seq) == 0 {
		return 0
	}
	best := make([]int, len(seq))
	out := 0
	for i := range seq {
		best[i] = 1
		for k := 0; k < i; k++ {
			if seq[k] < seq[i] && best[k]+1 > best[i] {
				best[i] = best[k] + 1
			}
		}
		if best[i] > out {
			out = best[i]
		}
	}
	return out
}

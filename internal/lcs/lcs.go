// Package lcs bundles the subsequence algorithms the diff stack needs:
//
//   - a classic dynamic-programming longest common subsequence over
//     arbitrary equality predicates (used by the LaDiff-style baseline
//     and by tests as a ground-truth oracle),
//   - a Myers O(ND) difference algorithm over string slices (used by
//     the Unix-diff clone and the DiffMK-style baseline),
//   - a maximum-weight increasing subsequence in O(k log k) (used by
//     BULD Phase 5 to compute an optimal set of intra-parent moves,
//     where the cost of moving a node is its weight), and
//   - the paper's windowed heuristic: cut long child sequences into
//     blocks of bounded length, solve each block, and merge (Section
//     5.2, "a maximum length (e.g. 50)").
package lcs

import (
	"sort"
	"sync"
)

// Pair records one aligned element of a common subsequence: a[AIdx]
// corresponds to b[BIdx].
type Pair struct {
	AIdx, BIdx int
}

// Longest returns a longest common subsequence of the index ranges
// [0,na) and [0,nb), where eq reports element equality. It runs the
// classic O(na·nb) dynamic program; callers with large inputs should
// prefer Myers (for sequences) or maxWeightIncreasing (for matchings).
func Longest(na, nb int, eq func(i, j int) bool) []Pair {
	if na == 0 || nb == 0 {
		return nil
	}
	// dp[i][j] = LCS length of a[i:], b[j:].
	dp := make([][]int32, na+1)
	cells := make([]int32, (na+1)*(nb+1))
	for i := range dp {
		dp[i] = cells[i*(nb+1) : (i+1)*(nb+1)]
	}
	for i := na - 1; i >= 0; i-- {
		for j := nb - 1; j >= 0; j-- {
			if eq(i, j) {
				dp[i][j] = dp[i+1][j+1] + 1
			} else if dp[i+1][j] >= dp[i][j+1] {
				dp[i][j] = dp[i+1][j]
			} else {
				dp[i][j] = dp[i][j+1]
			}
		}
	}
	pairs := make([]Pair, 0, dp[0][0])
	for i, j := 0, 0; i < na && j < nb; {
		switch {
		case eq(i, j):
			pairs = append(pairs, Pair{i, j})
			i++
			j++
		case dp[i+1][j] >= dp[i][j+1]:
			i++
		default:
			j++
		}
	}
	return pairs
}

// Item is one element of a candidate matching between two child lists:
// the element sits at position Key in the second list and moving it
// costs Weight. Items are presented in first-list order.
type Item struct {
	Key    int
	Weight float64
}

// maxWeightIncreasing returns the indices (into items) of a maximum-
// weight subsequence whose Keys are strictly increasing. Given child
// pairs sorted by old position with Key = new position, the selected
// items are the children that may stay in place; all others must move.
// Weights must be positive. Runs in O(k log k) time using a Fenwick
// tree over key ranks.
func maxWeightIncreasing(items []Item) []int {
	k := len(items)
	if k == 0 {
		return nil
	}
	s := mwisPool.Get().(*mwisScratch)
	defer mwisPool.Put(s)

	// Rank the keys: sorted + deduplicated, rank looked up by binary
	// search. BULD Phase 5 runs this once per matched parent pair, so
	// the former per-call rank maps dominated delta-construction
	// allocations; the sorted-slice form reuses pooled capacity.
	keys := s.keys[:0]
	for _, it := range items {
		keys = append(keys, it.Key)
	}
	sort.Ints(keys)
	u := 0
	for i := 0; i < len(keys); i++ {
		if u == 0 || keys[i] != keys[u-1] {
			keys[u] = keys[i]
			u++
		}
	}
	keys = keys[:u]
	s.keys = keys

	// Fenwick tree over ranks 1..u holding, per prefix, the best
	// (total weight, item index) chain ending at a key of that rank.
	s.tree = grown(s.tree, u+1)
	tree := s.tree
	for i := range tree {
		tree[i].idx = -1 // mark empty; the zero value would alias item 0
	}
	s.prev = grown(s.prev, k)
	prev := s.prev
	for i := range prev {
		prev[i] = -1
	}
	for i, it := range items {
		r := sort.SearchInts(keys, it.Key) + 1 // ranks are 1-based
		// Best chain using keys strictly smaller than it.Key.
		pre := query(tree, r-1)
		w := it.Weight
		if pre.idx >= 0 {
			w += pre.weight
			prev[i] = pre.idx
		}
		update(tree, r, chain{weight: w, idx: i})
	}
	top := query(tree, u)
	// Reconstruct.
	rev := s.rev[:0]
	for i := top.idx; i >= 0; i = prev[i] {
		rev = append(rev, i)
	}
	s.rev = rev
	out := make([]int, len(rev))
	for i := range rev {
		out[i] = rev[len(rev)-1-i]
	}
	return out
}

// mwisScratch is the reusable working set of one maxWeightIncreasing
// call; pooling it makes repeated Phase 5 invocations allocation-free
// apart from the returned index slice.
type mwisScratch struct {
	keys []int
	tree []chain
	prev []int
	rev  []int
}

var mwisPool = sync.Pool{New: func() any { return new(mwisScratch) }}

func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

type chain struct {
	weight float64
	idx    int // -1 means empty
}

func query(tree []chain, r int) chain {
	best := chain{idx: -1}
	for ; r > 0; r -= r & (-r) {
		if tree[r].idx >= 0 && (best.idx < 0 || tree[r].weight > best.weight) {
			best = tree[r]
		}
	}
	return best
}

func update(tree []chain, r int, c chain) {
	for ; r < len(tree); r += r & (-r) {
		if tree[r].idx < 0 || c.weight > tree[r].weight {
			tree[r] = c
		}
	}
}

// WindowedIncreasing is the paper's performance heuristic for long
// child lists: items are cut into blocks of at most window elements and
// maxWeightIncreasing runs on each block; the per-block selections are
// then merged by a second maximum-weight pass over the (much smaller)
// selected set, which keeps the global increasing-key invariant without
// letting one out-of-place element suppress whole later blocks. The
// result is a valid but possibly sub-optimal increasing subsequence:
// elements dropped inside a block (the paper's v4 example) cannot be
// recovered by the merge.
func WindowedIncreasing(items []Item, window int) []int {
	if window <= 0 || len(items) <= window {
		return maxWeightIncreasing(items)
	}
	var selected []int
	for start := 0; start < len(items); start += window {
		end := start + window
		if end > len(items) {
			end = len(items)
		}
		for _, idx := range maxWeightIncreasing(items[start:end]) {
			selected = append(selected, start+idx)
		}
	}
	sub := make([]Item, len(selected))
	for i, idx := range selected {
		sub[i] = items[idx]
	}
	out := make([]int, 0, len(selected))
	for _, i := range maxWeightIncreasing(sub) {
		out = append(out, selected[i])
	}
	return out
}

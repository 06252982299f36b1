package sftm_test

// The reference matcher: internal/sftm exactly as it stood before the
// flat-integer rewrite (sftm.go, match.go and token.go of that commit,
// concatenated with only the package clause and imports changed). It is
// the oracle TestMatchEqualsReference and FuzzMatchDifferential hold
// sftm.Match to, pair for pair, and the baseline of the reference
// benchmarks. Do not optimize or "fix" it: its value is that it does
// not change.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"unicode"

	"xydiff/internal/dom"
)

// ---------------------------------------------------------------------------
// sftm.go

// Options tune the matcher. The zero value selects the defaults the
// matcher sweep (TestQualityPinned) was calibrated with.
type Options struct {
	// TopK bounds the candidates kept per new node (default 16).
	TopK int

	// MaxPostings prunes tokens whose old-document posting list is
	// longer (stop tokens: shared by too many nodes to discriminate,
	// and the paper's guard against quadratic scoring). Default 64.
	MaxPostings int

	// MinScore is the acceptance floor: candidate pairs whose final
	// (penalty-adjusted) score falls below it stay unmatched and
	// surface as delete+insert in the delta. Default 0.30.
	MinScore float64

	// MinBase is the content-evidence floor for the greedy pass: pairs
	// whose raw token similarity (before propagation) falls below it
	// are never matched greedily, no matter how much structural support
	// they have — a fully rewritten node should be adopted by sibling
	// position under its matched parent, not claimed by a look-alike
	// across the page. Default 0.30.
	MinBase float64

	// Propagation scales the structural bonus a candidate pair earns
	// from similar parents, children and adjacent siblings (default
	// 0.5).
	Propagation float64

	// Penalty is the multiplicative score reduction applied to a pair
	// whose parents are already matched to different nodes (default
	// 0.60). Higher values favor structure over content.
	Penalty float64
}

func (o Options) topK() int {
	if o.TopK <= 0 {
		return 16
	}
	return o.TopK
}

func (o Options) maxPostings() int {
	if o.MaxPostings <= 0 {
		return 64
	}
	return o.MaxPostings
}

func (o Options) minScore() float64 {
	if o.MinScore <= 0 {
		return 0.30
	}
	return o.MinScore
}

func (o Options) minBase() float64 {
	if o.MinBase <= 0 {
		return 0.30
	}
	return o.MinBase
}

func (o Options) propagation() float64 {
	if o.Propagation <= 0 {
		return 0.5
	}
	return o.Propagation
}

func (o Options) penalty() float64 {
	if o.Penalty <= 0 {
		return 0.60
	}
	return o.Penalty
}

// Stats describes one matching run.
type Stats struct {
	// OldNodes and NewNodes are node counts excluding the documents.
	OldNodes, NewNodes int
	// Matched is how many old nodes found a counterpart.
	Matched int
	// Candidates is the total candidate pairs scored.
	Candidates int
	// StopTokens is how many distinct tokens the frequency cutoff
	// pruned from the index.
	StopTokens int
}

// Match computes an old→new node matching between two documents. Both
// arguments must be Document nodes; the documents themselves are never
// in the returned map (diff.FromMatching pairs them structurally).
func Match(oldDoc, newDoc *dom.Node, opts Options) (map[*dom.Node]*dom.Node, error) {
	pairs, _, err := MatchDetailed(oldDoc, newDoc, opts)
	return pairs, err
}

// MatchDetailed is Match plus run statistics.
func MatchDetailed(oldDoc, newDoc *dom.Node, opts Options) (map[*dom.Node]*dom.Node, Stats, error) {
	var st Stats
	if oldDoc == nil || newDoc == nil {
		return nil, st, fmt.Errorf("sftm: nil document")
	}
	if oldDoc.Type != dom.Document || newDoc.Type != dom.Document {
		return nil, st, fmt.Errorf("sftm: arguments must be Document nodes (got %v, %v)", oldDoc.Type, newDoc.Type)
	}
	oldT := flatten(oldDoc)
	newT := flatten(newDoc)
	st.OldNodes, st.NewNodes = oldT.len()-1, newT.len()-1

	m := &matcher{old: oldT, new: newT, opts: opts}
	m.tokenize()
	m.buildIndex()
	st.StopTokens = m.stopTokens
	m.selectCandidates()
	st.Candidates = m.candidateCount
	m.propagate()
	m.matchGreedy()
	m.adoptUniqueChildren()

	pairs := make(map[*dom.Node]*dom.Node, newT.len())
	for oi, ni := range m.oldToNew {
		if oi == 0 || ni < 0 {
			continue // documents are FromMatching's job
		}
		pairs[oldT.nodes[oi]] = newT.nodes[ni]
		st.Matched++
	}
	return pairs, st, nil
}

// flatTree is the pre-order array form of one document. In pre-order
// every descendant has a higher index than its ancestor, so a reverse
// scan is a valid bottom-up order — the propagation passes rely on
// both directions.
type flatTree struct {
	nodes    []*dom.Node
	parent   []int32 // pre-order parent index, -1 for the document
	kidStart []int32 // offset of node i's children block in kids
	kidEnd   []int32
	kids     []int32
}

func (t *flatTree) len() int { return len(t.nodes) }

func (t *flatTree) children(i int) []int32 {
	return t.kids[t.kidStart[i]:t.kidEnd[i]]
}

// flatten builds the pre-order arrays without recursion (crawled pages
// can nest deeply; an explicit stack keeps the goroutine stack flat).
// Children blocks are laid out by a counting sort over parent indices,
// so each node's children are contiguous and in document order.
func flatten(doc *dom.Node) *flatTree {
	n := doc.Size()
	t := &flatTree{
		nodes:    make([]*dom.Node, 0, n),
		parent:   make([]int32, 0, n),
		kidStart: make([]int32, n),
		kidEnd:   make([]int32, n),
	}
	type frame struct {
		node   *dom.Node
		parent int32
	}
	stack := []frame{{doc, -1}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		idx := int32(len(t.nodes))
		t.nodes = append(t.nodes, f.node)
		t.parent = append(t.parent, f.parent)
		// Reverse push so children pop — and number — in document order.
		for i := len(f.node.Children) - 1; i >= 0; i-- {
			stack = append(stack, frame{f.node.Children[i], idx})
		}
	}
	counts := make([]int32, len(t.nodes))
	for _, p := range t.parent {
		if p >= 0 {
			counts[p]++
		}
	}
	var off int32
	for i := range t.nodes {
		t.kidStart[i] = off
		t.kidEnd[i] = off // filled below
		off += counts[i]
	}
	if off > 0 {
		t.kids = make([]int32, off)
	}
	for i := 1; i < len(t.nodes); i++ {
		p := t.parent[i]
		t.kids[t.kidEnd[p]] = int32(i)
		t.kidEnd[p]++
	}
	return t
}

// compatible reports whether an old/new pair could survive
// diff.FromMatching's structural filter: same type and, for elements
// and processing instructions, same label.
func compatible(o, n *dom.Node) bool {
	if o.Type != n.Type {
		return false
	}
	if o.Type == dom.Element || o.Type == dom.ProcInst {
		return o.Name == n.Name
	}
	return true
}

// logIDF is the token weight for a document-frequency df out of n old
// nodes: rarer tokens weigh more.
func logIDF(n, df int) float64 {
	if df < 1 {
		df = 1
	}
	return 1 + math.Log(float64(n)/float64(df))
}

// ---------------------------------------------------------------------------
// match.go

// candidate is one scored old-node candidate for a new node.
type candidate struct {
	o     int32   // old pre-order index
	base  float64 // token similarity in [0,1]
	score float64 // base plus structural propagation bonus
}

type matcher struct {
	old, new *flatTree
	opts     Options

	oldTok, newTok [][]uint64 // per-node sorted, deduplicated token sets

	index  map[uint64][]int32  // token → old postings (stop tokens pruned)
	weight map[uint64]float64  // token → IDF weight over the old document
	stop   map[uint64]struct{} // pruned tokens, excluded from masses too

	oldMass, newMass []float64 // per-node total token weight

	cands          [][]candidate // per new node, ordered score desc / o asc
	candidateCount int
	stopTokens     int

	oldToNew, newToOld []int32
}

// tokenize fills the per-node token sets. A shared backing slice is
// deliberately not used: each node keeps its own sorted set alive for
// the whole run.
func (m *matcher) tokenize() {
	m.oldTok = make([][]uint64, m.old.len())
	m.newTok = make([][]uint64, m.new.len())
	for i := 1; i < m.old.len(); i++ {
		m.oldTok[i] = tokenizeNode(m.old.nodes[i], nil)
	}
	for i := 1; i < m.new.len(); i++ {
		m.newTok[i] = tokenizeNode(m.new.nodes[i], nil)
	}
}

// buildIndex constructs the inverted index over the old document,
// prunes over-frequent tokens, assigns IDF weights, and computes the
// per-node token masses used to normalize overlap scores.
func (m *matcher) buildIndex() {
	n := m.old.len() - 1
	df := make(map[uint64]int, n*4)
	for i := 1; i < m.old.len(); i++ {
		for _, t := range m.oldTok[i] {
			df[t]++
		}
	}
	maxPost := m.opts.maxPostings()
	m.index = make(map[uint64][]int32, len(df))
	m.weight = make(map[uint64]float64, len(df))
	m.stop = make(map[uint64]struct{})
	for t, c := range df {
		if c > maxPost {
			m.stop[t] = struct{}{}
			continue
		}
		m.weight[t] = logIDF(n, c)
	}
	m.stopTokens = len(m.stop)
	for i := 1; i < m.old.len(); i++ {
		for _, t := range m.oldTok[i] {
			if _, dead := m.stop[t]; dead {
				continue
			}
			m.index[t] = append(m.index[t], int32(i))
		}
	}

	// Tokens the old document never saw still count toward a new
	// node's mass (they are evidence of difference) at the maximum
	// weight a singleton would get.
	unseen := logIDF(n, 1)
	m.oldMass = make([]float64, m.old.len())
	m.newMass = make([]float64, m.new.len())
	for i := 1; i < m.old.len(); i++ {
		var mass float64
		for _, t := range m.oldTok[i] {
			mass += m.weight[t] // zero for stop tokens
		}
		m.oldMass[i] = mass
	}
	for i := 1; i < m.new.len(); i++ {
		var mass float64
		for _, t := range m.newTok[i] {
			if _, dead := m.stop[t]; dead {
				continue
			}
			if w, ok := m.weight[t]; ok {
				mass += w
			} else {
				mass += unseen
			}
		}
		m.newMass[i] = mass
	}
}

// selectCandidates scores, for every new node, the old nodes it shares
// at least one indexed token with, and keeps the top-k compatible ones.
// Scores are the shared token weight normalized by the larger of the
// two node masses, so identical nodes score 1 and a node absorbed into
// a much heavier one scores low.
func (m *matcher) selectCandidates() {
	m.cands = make([][]candidate, m.new.len())
	acc := make([]float64, m.old.len())
	touched := make([]int32, 0, 256)
	k := m.opts.topK()
	for ni := 1; ni < m.new.len(); ni++ {
		touched = touched[:0]
		for _, t := range m.newTok[ni] {
			w, ok := m.weight[t]
			if !ok {
				continue
			}
			for _, oi := range m.index[t] {
				if acc[oi] == 0 {
					touched = append(touched, oi)
				}
				acc[oi] += w
			}
		}
		nn := m.new.nodes[ni]
		var best []candidate
		for _, oi := range touched {
			shared := acc[oi]
			acc[oi] = 0
			if !compatible(m.old.nodes[oi], nn) {
				continue
			}
			denom := m.oldMass[oi]
			if m.newMass[ni] > denom {
				denom = m.newMass[ni]
			}
			if denom <= 0 {
				continue
			}
			best = insertTopK(best, candidate{o: oi, base: shared / denom}, k)
		}
		m.cands[ni] = best
		m.candidateCount += len(best)
	}
}

// insertTopK keeps best ordered by base desc, then o asc, capped at k.
// The total order makes the kept set independent of insertion order.
func insertTopK(best []candidate, c candidate, k int) []candidate {
	pos := len(best)
	for pos > 0 {
		p := best[pos-1]
		if p.base > c.base || (p.base == c.base && p.o < c.o) {
			break
		}
		pos--
	}
	if pos >= k {
		return best
	}
	if len(best) < k {
		best = append(best, candidate{})
	}
	copy(best[pos+1:], best[pos:])
	best[pos] = c
	return best
}

// candScore returns the current propagated score recorded for the
// (old, new) pair, or 0 if the old node is not among the new node's
// candidates. Candidate lists are top-k small, so a linear scan wins
// over any map.
func (m *matcher) candScore(ni, oi int32) float64 {
	for _, c := range m.cands[ni] {
		if c.o == oi {
			return c.score
		}
	}
	return 0
}

// sibArrays returns, for every node, the pre-order index of its
// previous and next sibling (-1 at the ends). Children blocks are in
// document order, so adjacency is positional adjacency.
func sibArrays(t *flatTree) (prev, next []int32) {
	prev = make([]int32, t.len())
	next = make([]int32, t.len())
	for i := range prev {
		prev[i], next[i] = -1, -1
	}
	for i := 0; i < t.len(); i++ {
		ks := t.children(i)
		for j := range ks {
			if j > 0 {
				prev[ks[j]] = ks[j-1]
			}
			if j+1 < len(ks) {
				next[ks[j]] = ks[j+1]
			}
		}
	}
	return prev, next
}

// propagate adds the structural bonus: a candidate pair earns support
// when the new node's children have candidates under the old node
// (child support, normalized by the larger child count), when the
// parents are each other's candidates too (parent support), and when
// the adjacent siblings agree (sibling support — the only signal that
// separates two fully-rewritten paragraphs under the same section).
// The pass runs twice, the second feeding on the first's scores, so
// evidence two levels away still separates structurally identical
// ancestors (two look-alike section divs are told apart by their
// headings' text). Each pass reads only the previous pass's scores, so
// the result is order-independent and deterministic.
func (m *matcher) propagate() {
	prop := m.opts.propagation()
	for ni := range m.cands {
		for i := range m.cands[ni] {
			m.cands[ni][i].score = m.cands[ni][i].base
		}
	}
	if prop <= 0 {
		return
	}
	// Support values read c.score from the previous pass, normalized
	// back to [0,1] by the score ceiling 1+prop.
	const passes = 2
	next := make([][]float64, m.new.len())
	for ni := 1; ni < m.new.len(); ni++ {
		next[ni] = make([]float64, len(m.cands[ni]))
	}
	nPrev, nNext := sibArrays(m.new)
	oPrev, oNext := sibArrays(m.old)
	for pass := 0; pass < passes; pass++ {
		norm := 1.0
		if pass > 0 {
			norm = 1 + prop
		}
		for ni := 1; ni < m.new.len(); ni++ {
			for i := range m.cands[ni] {
				c := &m.cands[ni][i]
				oi := c.o

				var childSup float64
				nKids := m.new.children(ni)
				oKids := m.old.children(int(oi))
				if len(nKids) > 0 && len(oKids) > 0 {
					var sum float64
					for _, ck := range nKids {
						var bestUnder float64
						for _, cc := range m.cands[ck] {
							if m.old.parent[cc.o] == oi && cc.score > bestUnder {
								bestUnder = cc.score
							}
						}
						sum += bestUnder
					}
					denom := len(nKids)
					if len(oKids) > denom {
						denom = len(oKids)
					}
					childSup = sum / float64(denom) / norm
				}

				var parentSup float64
				if pn, po := m.new.parent[ni], m.old.parent[oi]; pn > 0 && po > 0 {
					parentSup = m.candScore(pn, po) / norm
				} else if pn == 0 && po == 0 {
					// Both directly under the document: roots agree.
					parentSup = 1
				}

				// Sibling support per direction: agreement when both
				// neighbors exist and are candidates of each other, or
				// when both are absent (first child pairs with first
				// child, last with last).
				var sibSup float64
				if sp, so := nPrev[ni], oPrev[oi]; sp >= 0 && so >= 0 {
					sibSup += m.candScore(sp, so) / norm
				} else if sp < 0 && so < 0 {
					sibSup += 1
				}
				if sn, so := nNext[ni], oNext[oi]; sn >= 0 && so >= 0 {
					sibSup += m.candScore(sn, so) / norm
				} else if sn < 0 && so < 0 {
					sibSup += 1
				}
				sibSup /= 2

				next[ni][i] = c.base + prop*(childSup+parentSup+sibSup)/3
			}
		}
		for ni := 1; ni < m.new.len(); ni++ {
			for i := range m.cands[ni] {
				m.cands[ni][i].score = next[ni][i]
			}
		}
	}
}

// heapItem is one candidate pair awaiting greedy settlement. key is
// the score the item was pushed with; the true score can only decrease
// (penalties are monotone: matches are never undone), so the classic
// lazy trick applies — on pop, re-evaluate, and push back if stale.
type heapItem struct {
	key float64
	ni  int32
	ci  int32 // index into cands[ni]
}

// itemLess orders the match heap: score desc, then new index asc, then
// candidate rank asc. The total order makes greedy settlement — and
// therefore the delta — deterministic.
func itemLess(a, b heapItem) bool {
	if a.key != b.key {
		return a.key > b.key
	}
	if a.ni != b.ni {
		return a.ni < b.ni
	}
	return a.ci < b.ci
}

type matchHeap []heapItem

func (h *matchHeap) push(it heapItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *matchHeap) pop() heapItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && itemLess(old[l], old[small]) {
			small = l
		}
		if r < n && itemLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// currentScore applies the structural penalty as of the present
// matching state: if either pair member's parent is already matched,
// but not to the other's parent, the pair crosses an established
// boundary and its score is scaled down.
func (m *matcher) currentScore(ni int32, c candidate) float64 {
	s := c.score
	pn, po := m.new.parent[ni], m.old.parent[c.o]
	crossed := false
	if po >= 0 {
		if mo := m.oldToNew[po]; mo >= 0 && mo != pn {
			crossed = true
		}
	}
	if !crossed && pn >= 0 {
		if mn := m.newToOld[pn]; mn >= 0 && mn != po {
			crossed = true
		}
	}
	if crossed {
		s *= 1 - m.opts.penalty()
	}
	return s
}

// matchGreedy settles the matching best-score-first with lazy penalty
// re-evaluation.
func (m *matcher) matchGreedy() {
	m.oldToNew = make([]int32, m.old.len())
	m.newToOld = make([]int32, m.new.len())
	for i := range m.oldToNew {
		m.oldToNew[i] = -1
	}
	for i := range m.newToOld {
		m.newToOld[i] = -1
	}
	// The documents always correspond; FromMatching pairs them
	// structurally, and the adoption pass below seeds from this root
	// pair.
	m.oldToNew[0] = 0
	m.newToOld[0] = 0

	h := make(matchHeap, 0, m.candidateCount)
	for ni := 1; ni < m.new.len(); ni++ {
		for ci, c := range m.cands[ni] {
			h.push(heapItem{key: c.score, ni: int32(ni), ci: int32(ci)})
		}
	}
	minScore := m.opts.minScore()
	minBase := m.opts.minBase()
	const eps = 1e-12
	for len(h) > 0 {
		it := h.pop()
		ni := it.ni
		if m.newToOld[ni] >= 0 {
			continue
		}
		c := m.cands[ni][it.ci]
		if m.oldToNew[c.o] >= 0 {
			continue
		}
		cur := m.currentScore(ni, c)
		if cur < minScore || c.base < minBase {
			continue
		}
		if cur < it.key-eps {
			// Stale: a penalty landed since this was pushed. Re-queue
			// at the true score; scores only decrease, so this happens
			// at most once per item.
			h.push(heapItem{key: cur, ni: ni, ci: it.ci})
			continue
		}
		m.oldToNew[c.o] = ni
		m.newToOld[ni] = c.o
	}
}

// adoptUniqueChildren is the recall pass: for every matched pair, the
// unmatched children of one kind (same type and label) are paired in
// sibling order when both sides are left with the same number of them
// — matching by elimination. This is how a text node whose content
// changed completely, sharing no tokens with its old self, still
// becomes an update instead of delete+insert; with equal leftovers on
// both sides, sibling position is the only signal there is. The new
// tree is scanned in pre-order, so pairs created here have their own
// children considered later in the same pass.
func (m *matcher) adoptUniqueChildren() {
	type slot struct {
		oIdx, nIdx []int32
	}
	for ni := 0; ni < m.new.len(); ni++ {
		oi := m.newToOld[ni]
		if oi < 0 {
			continue
		}
		slots := make(map[string]*slot)
		var keys []string
		key := func(n *dom.Node) string {
			switch n.Type {
			case dom.Element:
				return "e\x00" + n.Name
			case dom.Text:
				return "t"
			case dom.Comment:
				return "c"
			case dom.ProcInst:
				return "p\x00" + n.Name
			}
			return "?"
		}
		for _, ck := range m.old.children(int(oi)) {
			if m.oldToNew[ck] >= 0 {
				continue
			}
			k := key(m.old.nodes[ck])
			s := slots[k]
			if s == nil {
				s = &slot{}
				slots[k] = s
				keys = append(keys, k)
			}
			s.oIdx = append(s.oIdx, ck)
		}
		for _, ck := range m.new.children(ni) {
			if m.newToOld[ck] >= 0 {
				continue
			}
			k := key(m.new.nodes[ck])
			s := slots[k]
			if s == nil {
				s = &slot{}
				slots[k] = s
				keys = append(keys, k)
			}
			s.nIdx = append(s.nIdx, ck)
		}
		for _, k := range keys {
			s := slots[k]
			if len(s.oIdx) != len(s.nIdx) {
				continue
			}
			for i := range s.oIdx {
				m.oldToNew[s.oIdx[i]] = s.nIdx[i]
				m.newToOld[s.nIdx[i]] = s.oIdx[i]
			}
		}
	}
}

// ---------------------------------------------------------------------------
// token.go

// Tokens are FNV-1a hashes of namespaced strings ("t:" tag, "a:"
// attribute name, "v:" attribute name=value, "c:" class token, "w:"
// text word, "s:" word bigram shingle). Hashing keeps the index
// allocation-free per lookup; a collision merely nudges one similarity
// score, which a heuristic matcher tolerates by construction.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hashSeed returns the FNV-1a hash of the namespace prefix, ready to
// be extended with hashString.
func hashSeed(ns string) uint64 {
	return hashString(fnvOffset, ns)
}

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime
	return h
}

var (
	seedTag   = hashSeed("t:")
	seedAttr  = hashSeed("a:")
	seedValue = hashSeed("v:")
	seedClass = hashSeed("c:")
	seedWord  = hashSeed("w:")
	seedPair  = hashSeed("s:")
	seedKid   = hashSeed("k:")
	seedChild = hashSeed("d:")
)

// tokenizeNode appends the node's tokens to dst and returns the
// extended slice, sorted and deduplicated (set semantics: repeating a
// word in a text node must not double its weight).
func tokenizeNode(n *dom.Node, dst []uint64) []uint64 {
	switch n.Type {
	case dom.Element:
		dst = append(dst, hashString(seedTag, n.Name))
		for _, a := range n.Attrs {
			dst = append(dst, hashString(seedAttr, a.Name))
			if a.Name == "class" || a.Name == "rel" {
				// Multi-valued attributes: one token per entry so a
				// single added class keeps the rest of the overlap.
				dst = appendWords(dst, seedClass, a.Value, false)
			} else {
				h := hashString(seedValue, a.Name)
				h = hashByte(h, '=')
				dst = append(dst, hashString(h, a.Value))
			}
		}
		// Direct text children lend their words, and element children
		// their tags, each under a separate namespace. Repeated id-less
		// elements (li, p, a) are otherwise token-identical, and a true
		// partner missing from the top-k candidate list at selection
		// time is unrecoverable; the child-tag outline also separates a
		// freshly inserted wrapper div (one div child) from the section
		// div it wraps (heading, paragraphs, list).
		for _, ch := range n.Children {
			switch ch.Type {
			case dom.Text:
				dst = appendWords(dst, seedKid, ch.Value, false)
			case dom.Element:
				dst = append(dst, hashString(seedChild, ch.Name))
			}
		}
	case dom.Text, dom.Comment:
		dst = appendWords(dst, seedWord, n.Value, true)
	case dom.ProcInst:
		dst = append(dst, hashString(seedTag, n.Name))
		dst = appendWords(dst, seedWord, n.Value, false)
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i] < dst[j] })
	out := dst[:0]
	var prev uint64
	for i, h := range dst {
		if i == 0 || h != prev {
			out = append(out, h)
			prev = h
		}
	}
	return out
}

// appendWords splits s on spaces/punctuation and appends one token per
// word (lower-cased, so "Price" and "price" overlap across re-renders).
// With shingles, consecutive-word bigrams are added too: they preserve
// enough ordering signal to tell two short text nodes apart when their
// vocabularies overlap.
func appendWords(dst []uint64, seed uint64, s string, shingles bool) []uint64 {
	var prev uint64
	hasPrev := false
	for len(s) > 0 {
		start := strings.IndexFunc(s, isWordRune)
		if start < 0 {
			break
		}
		s = s[start:]
		end := strings.IndexFunc(s, func(r rune) bool { return !isWordRune(r) })
		if end < 0 {
			end = len(s)
		}
		word := s[:end]
		s = s[end:]
		h := seed
		for _, r := range word {
			h = hashByte(h, byte(unicode.ToLower(r)))
			h = hashByte(h, byte(unicode.ToLower(r)>>8))
		}
		dst = append(dst, h)
		if shingles {
			if hasPrev {
				p := hashByte(seedPair, 0)
				p ^= prev
				p *= fnvPrime
				p ^= h
				p *= fnvPrime
				dst = append(dst, p)
			}
			prev, hasPrev = h, true
		}
	}
	return dst
}

func isWordRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r)
}

package sftm

// candidate is one scored old-node candidate for a new node.
type candidate struct {
	o     int32   // old pre-order index
	base  float64 // token similarity in [0,1]
	score float64 // base plus structural propagation bonus
}

// tokenSets holds every node's token set in one backing slice: node i
// owns ids[start[i]:start[i+1]], in ascending order of the tokens'
// hashes — the order every floating-point sum over a node's tokens is
// taken in.
type tokenSets struct {
	start []int32
	ids   []int32
}

func (t *tokenSets) of(i int) []int32 { return t.ids[t.start[i]:t.start[i+1]] }

// unseenToken stands for every new-document token the old document
// never produced: it has no postings and weighs the same wherever it
// occurs, so one sentinel serves them all.
const unseenToken = -1

type matcher struct {
	old, new *flatTree
	kinds    int // size of the node-kind id space
	done     <-chan struct{}

	// Token ids are dense, in order of first appearance in the old
	// document.
	oldTok, newTok tokenSets
	df             []int32   // id → old nodes carrying it; consumed by buildIndex
	weight         []float64 // id → IDF weight over the old document; 0 marks a stop token
	postStart      []int32   // id → its postings are post[postStart[id]:postStart[id+1]]
	post           []int32   // old node indexes, ascending per token; none for stop tokens

	oldMass, newMass []float64 // per-node total token weight

	// cands is the candidate arena: new node i owns the topK slots from
	// i<<topKShift, of which the first candLen[i] are in use, ordered
	// base desc / o asc.
	cands          []candidate
	candLen        []uint8
	candidateCount int
	stopTokens     int

	oldToNew, newToOld []int32
}

func (m *matcher) candsOf(ni int32) []candidate {
	at := int(ni) << topKShift
	return m.cands[at : at+int(m.candLen[ni])]
}

// tokenize fills the per-node token sets. Hashes are interned into ids
// through one map built from the old document; the new document only
// looks up.
func (m *matcher) tokenize() {
	// Pages average about eight tokens a node, half of them new to the
	// document; the hints only save regrowth.
	const perNode = 8
	oldN, newN := m.old.len(), m.new.len()
	intern := make(map[uint64]int32, oldN*perNode/2)
	m.df = make([]int32, 0, oldN*perNode/2)
	var scratch []uint64

	m.oldTok = tokenSets{start: make([]int32, oldN+1), ids: make([]int32, 0, oldN*perNode)}
	for i := 1; i < oldN; i++ {
		if i&pollMask == 0 && canceled(m.done) {
			return
		}
		scratch = tokenizeNode(m.old.nodes[i], scratch[:0])
		for _, h := range scratch {
			id, ok := intern[h]
			if !ok {
				id = int32(len(m.df))
				intern[h] = id
				m.df = append(m.df, 0)
			}
			m.df[id]++
			m.oldTok.ids = append(m.oldTok.ids, id)
		}
		m.oldTok.start[i+1] = int32(len(m.oldTok.ids))
	}

	m.newTok = tokenSets{start: make([]int32, newN+1), ids: make([]int32, 0, newN*perNode)}
	for i := 1; i < newN; i++ {
		if i&pollMask == 0 && canceled(m.done) {
			return
		}
		scratch = tokenizeNode(m.new.nodes[i], scratch[:0])
		for _, h := range scratch {
			id, ok := intern[h]
			if !ok {
				id = unseenToken
			}
			m.newTok.ids = append(m.newTok.ids, id)
		}
		m.newTok.start[i+1] = int32(len(m.newTok.ids))
	}
}

// buildIndex constructs the inverted index over the old document,
// prunes over-frequent tokens, assigns IDF weights, and computes the
// per-node token masses used to normalize overlap scores.
func (m *matcher) buildIndex() {
	oldN, newN := m.old.len(), m.new.len()
	n := oldN - 1
	m.weight = make([]float64, len(m.df))
	m.postStart = make([]int32, len(m.df)+1)
	for id, c := range m.df {
		m.postStart[id+1] = m.postStart[id]
		if c > maxPostings {
			m.stopTokens++ // weight stays 0, postings stay empty
			continue
		}
		m.weight[id] = logIDF(n, int(c))
		m.postStart[id+1] += c
	}
	m.post = make([]int32, m.postStart[len(m.df)])
	fill := m.df // the counts are spent: reuse them as write cursors
	copy(fill, m.postStart)
	m.df = nil

	// One pass over the old nodes fills the postings (ascending node
	// index per token) and sums the masses. A stop token adds its
	// weight of zero to a mass, which changes nothing.
	m.oldMass = make([]float64, oldN)
	for i := 1; i < oldN; i++ {
		var mass float64
		for _, id := range m.oldTok.of(i) {
			w := m.weight[id]
			mass += w
			if w != 0 {
				m.post[fill[id]] = int32(i)
				fill[id]++
			}
		}
		m.oldMass[i] = mass
	}

	// Tokens the old document never saw still count toward a new
	// node's mass (they are evidence of difference) at the maximum
	// weight a singleton would get.
	unseen := logIDF(n, 1)
	m.newMass = make([]float64, newN)
	for i := 1; i < newN; i++ {
		var mass float64
		for _, id := range m.newTok.of(i) {
			if id == unseenToken {
				mass += unseen
			} else {
				mass += m.weight[id]
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
	newN := m.new.len()
	m.cands = make([]candidate, newN<<topKShift)
	m.candLen = make([]uint8, newN)
	acc := make([]float64, m.old.len())
	touched := make([]int32, 0, 256)
	for ni := 1; ni < newN; ni++ {
		if ni&pollMask == 0 && canceled(m.done) {
			return
		}
		touched = touched[:0]
		for _, id := range m.newTok.of(ni) {
			if id == unseenToken {
				continue
			}
			w := m.weight[id]
			for _, oi := range m.post[m.postStart[id]:m.postStart[id+1]] {
				if acc[oi] == 0 {
					touched = append(touched, oi)
				}
				acc[oi] += w
			}
		}
		kind, mass := m.new.kind[ni], m.newMass[ni]
		at := ni << topKShift
		best := m.cands[at : at : at+topK]
		for _, oi := range touched {
			shared := acc[oi]
			acc[oi] = 0
			if m.old.kind[oi] != kind {
				continue
			}
			denom := m.oldMass[oi]
			if mass > denom {
				denom = mass
			}
			if denom <= 0 {
				continue
			}
			best = insertTopK(best, candidate{o: oi, base: shared / denom})
		}
		m.candLen[ni] = uint8(len(best))
		m.candidateCount += len(best)
	}
}

// insertTopK keeps best ordered by base desc, then o asc, capped at
// its capacity topK. The total order makes the kept set independent of
// insertion order.
func insertTopK(best []candidate, c candidate) []candidate {
	ahead := func(p candidate) bool {
		return p.base > c.base || (p.base == c.base && p.o < c.o)
	}
	pos := len(best)
	if pos < topK {
		best = best[:pos+1]
	} else if pos--; ahead(best[pos]) {
		return best // full, and c does not beat the last
	}
	// Shift the candidates c beats one slot down (the last falls off a
	// full list) and drop c into the gap.
	for ; pos > 0 && !ahead(best[pos-1]); pos-- {
		best[pos] = best[pos-1]
	}
	best[pos] = c
	return best
}

// rankTable finds an old node among one new node's candidates without
// scanning the list. Loading new node x's candidates writes, at each
// candidate's old index, that candidate's arena index — which names x
// in its high bits, so an entry left behind by another node is told
// apart by a shift and nothing ever needs clearing. An entry is looked
// up only between loading its node and loading the next.
type rankTable []int32

func newRankTable(oldNodes int) rankTable {
	t := make(rankTable, oldNodes)
	for i := range t {
		t[i] = -1
	}
	return t
}

func (m *matcher) loadRanks(t rankTable, x int32) {
	at := x << topKShift
	for r, c := range m.candsOf(x) {
		t[c.o] = at + int32(r)
	}
}

// find returns the arena index of old node o among the loaded
// candidates of new node x, or -1.
func (t rankTable) find(x, o int32) int32 {
	if e := t[o]; e>>topKShift == x {
		return e
	}
	return -1
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
	for i := range m.cands {
		m.cands[i].score = m.cands[i].base
	}
	next := make([]float64, len(m.cands))
	ranks := newRankTable(m.old.len())
	const passes = 2
	for pass := 0; pass < passes; pass++ {
		// Support values read the previous pass's scores, normalized
		// back to [0,1] by the score ceiling 1+propagation.
		norm := 1.0
		if pass > 0 {
			norm = 1 + propagation
		}
		for ni := int32(1); ni < int32(m.new.len()); ni++ {
			if ni&pollMask == 0 && canceled(m.done) {
				return
			}
			cs := m.candsOf(ni)
			if len(cs) == 0 {
				continue
			}
			// Support per candidate of ni, by rank.
			var child, parent, sib [topK]float64

			// Child support: one sweep over the children's candidate
			// lists serves all of ni's candidates at once. A child
			// contributes, to the candidate that is the old parent of
			// its own candidates, the best score among them; children
			// add up in document order.
			if kids := m.new.children(ni); len(kids) > 0 {
				m.loadRanks(ranks, ni)
				for _, ck := range kids {
					var bestUnder [topK]float64
					for _, cc := range m.candsOf(ck) {
						if e := ranks.find(ni, m.old.parent[cc.o]); e >= 0 && cc.score > bestUnder[e&(topK-1)] {
							bestUnder[e&(topK-1)] = cc.score
						}
					}
					for r := range cs {
						child[r] += bestUnder[r]
					}
				}
				for r, c := range cs {
					// A childless old node collected nothing: 0 stays 0.
					denom := len(kids)
					if oKids := len(m.old.children(c.o)); oKids > denom {
						denom = oKids
					}
					child[r] = child[r] / float64(denom) / norm
				}
			}

			pn := m.new.parent[ni]
			if pn > 0 {
				m.loadRanks(ranks, pn)
			}
			for r, c := range cs {
				switch po := m.old.parent[c.o]; {
				case pn > 0 && po > 0:
					parent[r] = m.scoreOf(ranks, pn, po) / norm
				case pn == 0 && po == 0:
					// Both directly under the document: roots agree.
					parent[r] = 1
				}
			}

			m.siblingSupport(&sib, ranks, cs, m.new.prev[ni], m.old.prev, norm)
			m.siblingSupport(&sib, ranks, cs, m.new.next[ni], m.old.next, norm)

			at := ni << topKShift
			for r, c := range cs {
				next[at+int32(r)] = c.base + propagation*(child[r]+parent[r]+sib[r]/2)/3
			}
		}
		for i := range m.cands {
			m.cands[i].score = next[i]
		}
	}
}

// scoreOf returns the current propagated score of the (old o, new x)
// pair, or 0 if o is not among x's candidates, which must be loaded in
// ranks.
func (m *matcher) scoreOf(ranks rankTable, x, o int32) float64 {
	if e := ranks.find(x, o); e >= 0 {
		return m.cands[e].score
	}
	return 0
}

// siblingSupport adds one direction's sibling support to sib: for the
// candidates cs of a new node whose neighbor on that side is sn (-1
// for none), agreement when both neighbors exist and are candidates of
// each other, or when both are absent (first child pairs with first
// child, last with last).
func (m *matcher) siblingSupport(sib *[topK]float64, ranks rankTable, cs []candidate, sn int32, oldSib []int32, norm float64) {
	if sn >= 0 {
		m.loadRanks(ranks, sn)
	}
	for r, c := range cs {
		so := oldSib[c.o]
		if sn >= 0 && so >= 0 {
			sib[r] += m.scoreOf(ranks, sn, so) / norm
		} else if sn < 0 && so < 0 {
			sib[r] += 1
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
	ci  int32 // rank among ni's candidates
}

// itemLess orders the match heap: score desc, then new index asc, then
// candidate rank asc. The total order makes greedy settlement — and
// therefore the delta — deterministic, whatever the heap's layout.
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

func (h matchHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !itemLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (h matchHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && itemLess(h[l], h[small]) {
			small = l
		}
		if r < n && itemLess(h[r], h[small]) {
			small = r
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

func (h *matchHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *matchHeap) pop() heapItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	h.down(0)
	return top
}

// currentScore applies the structural penalty as of the present
// matching state: if either pair member's parent is already matched,
// but not to the other's parent, the pair crosses an established
// boundary and its score is scaled down.
func (m *matcher) currentScore(ni int32, c candidate) float64 {
	// Neither node is a document, so both have parents.
	pn, po := m.new.parent[ni], m.old.parent[c.o]
	if mo := m.oldToNew[po]; mo >= 0 && mo != pn {
		return c.score * (1 - penalty)
	}
	if mn := m.newToOld[pn]; mn >= 0 && mn != po {
		return c.score * (1 - penalty)
	}
	return c.score
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
	// The documents always correspond, and the adoption pass seeds from
	// this root pair.
	m.oldToNew[0] = 0
	m.newToOld[0] = 0

	// Only pairs that clear both floors are queued: a penalty only
	// lowers a score, so the rest could never be accepted.
	var h matchHeap
	for ni := int32(1); ni < int32(m.new.len()); ni++ {
		for ci, c := range m.candsOf(ni) {
			if c.score >= minScore && c.base >= minBase {
				h = append(h, heapItem{key: c.score, ni: ni, ci: int32(ci)})
			}
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	const eps = 1e-12
	for pops := 1; len(h) > 0; pops++ {
		if pops&popPollMask == 0 && canceled(m.done) {
			return
		}
		it := h.pop()
		ni := it.ni
		if m.newToOld[ni] >= 0 {
			continue
		}
		c := m.cands[ni<<topKShift+it.ci]
		if m.oldToNew[c.o] >= 0 {
			continue
		}
		cur := m.currentScore(ni, c)
		if cur < minScore {
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
	// Per kind: leftover children on the new side, and on the old side
	// a count plus the head of a chain (through nextSame) of them in
	// sibling order. All three are zeroed again after each pair.
	newLeft := make([]int32, m.kinds)
	oldLeft := make([]int32, m.kinds)
	head := make([]int32, m.kinds)
	var nextSame []int32 // by position among the old node's children
	for ni := int32(0); ni < int32(m.new.len()); ni++ {
		oi := m.newToOld[ni]
		if oi < 0 {
			continue
		}
		oKids, nKids := m.old.children(oi), m.new.children(ni)
		if len(oKids) == 0 || len(nKids) == 0 {
			continue
		}
		if cap(nextSame) < len(oKids) {
			nextSame = make([]int32, len(oKids))
		}
		for j := len(oKids) - 1; j >= 0; j-- {
			if ck := oKids[j]; m.oldToNew[ck] < 0 {
				k := m.old.kind[ck]
				oldLeft[k]++
				nextSame[j] = head[k]
				head[k] = int32(j) + 1 // 0 ends the chain
			}
		}
		for _, ck := range nKids {
			if m.newToOld[ck] < 0 {
				newLeft[m.new.kind[ck]]++
			}
		}
		for _, ck := range nKids {
			if m.newToOld[ck] >= 0 {
				continue
			}
			k := m.new.kind[ck]
			if oldLeft[k] != newLeft[k] {
				continue
			}
			j := head[k] - 1
			head[k] = nextSame[j]
			m.oldToNew[oKids[j]] = ck
			m.newToOld[ck] = oKids[j]
		}
		for _, ck := range oKids {
			k := m.old.kind[ck]
			oldLeft[k], head[k] = 0, 0
		}
		for _, ck := range nKids {
			newLeft[m.new.kind[ck]] = 0
		}
	}
}

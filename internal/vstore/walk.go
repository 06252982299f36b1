package vstore

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

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
// it. A backward walk copies latest only once it has a
// step to take: a target at the latest version is visited on latest
// itself. When the deltas it steps through are large enough and there
// is more than one processor to run on, helpers decode them ahead of
// it (aheadDecoder). decoded is how many stored deltas the walk
// stepped through. The caller holds the state lock.
func (st *docState) walk(latest *dom.Node, targets []int, fwd int, visit visitor) (_ *dom.Node, decoded int, _ error) {
	if latest == nil {
		fwd = len(targets)
	}
	// The walk steps through deltas 1..ahead forward, then
	// st.versions-1 down to back backward.
	ahead, back := 0, st.versions
	switch {
	case latest == nil:
		ahead = st.versions - 1
	case fwd > 0:
		ahead = targets[fwd-1] - 1
	}
	if fwd < len(targets) {
		back = targets[fwd]
	}
	stepper := st.step
	if runtime.GOMAXPROCS(0) > 1 && st.storedBytes(1, ahead)+st.storedBytes(back, st.versions-1) > aheadMinBytes {
		a := st.decodeAhead(ahead, back)
		defer a.stop()
		stepper = a.step
	}
	step := func(r *delta.Replay, n int, backward bool) error {
		decoded++
		return stepper(r, n, backward)
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

// storedBytes is the bytes deltas from..to hold (1-based, inclusive;
// none when to < from).
func (st *docState) storedBytes(from, to int) int {
	n := 0
	for i := from; i <= to; i++ {
		n += st.deltas[i-1].len()
	}
	return n
}

// aheadMinBytes is the crossover of walk's helpers: a walk decodes its
// deltas ahead of itself only when the bytes they hold — frames, or XML
// not yet decoded — add up to more than this. Below it, handing each
// delta over costs more than the decodes the helpers overlap;
// DESIGN.md has the measurement. With one processor nothing overlaps,
// so no walk decodes ahead. Tests lower it to drive the helpers over
// small chains.
var aheadMinBytes = 16 << 10

// aheadDecoder decodes the deltas of one walk ahead of it, in the
// order the walk steps through them: deltas 1..ahead, then
// versions-1 down to back. Helper goroutines, at most GOMAXPROCS, each
// take the next delta of that order and decode it; a token bounds the
// decoded deltas not yet taken, with those being decoded, to the
// number of helpers. The walk takes them in order with step. The
// helpers read only entries of st.deltas, which never change once
// appended, under the state lock the walk holds; stop ends them before
// the walk returns and the lock is released.
type aheadDecoder struct {
	st      *docState
	order   []int // delta numbers in walk order
	done    []chan struct{}
	got     []decodedDelta
	claimed atomic.Int64 // how many of order helpers have taken
	tokens  chan struct{}
	quit    chan struct{}
	helpers sync.WaitGroup
	taken   int // how many of order the walk has taken
}

type decodedDelta struct {
	d   *delta.Delta
	err error
}

// decodeAhead starts the helpers of a walk that steps through deltas
// 1..ahead forward and then versions-1 down to back backward.
func (st *docState) decodeAhead(ahead, back int) *aheadDecoder {
	order := make([]int, 0, ahead+st.versions-back)
	for n := 1; n <= ahead; n++ {
		order = append(order, n)
	}
	for n := st.versions - 1; n >= back; n-- {
		order = append(order, n)
	}
	workers := min(runtime.GOMAXPROCS(0), len(order))
	a := &aheadDecoder{
		st:     st,
		order:  order,
		done:   make([]chan struct{}, len(order)),
		got:    make([]decodedDelta, len(order)),
		tokens: make(chan struct{}, workers),
		quit:   make(chan struct{}),
	}
	for i := range a.done {
		a.done[i] = make(chan struct{})
	}
	a.helpers.Add(workers)
	for range workers {
		go a.help()
	}
	return a
}

// help decodes deltas of the order until none is left or the walk
// stops. A helper takes a token before it claims a delta, so deltas
// are claimed in order and the one the walk waits for is always being
// decoded or free to claim.
func (a *aheadDecoder) help() {
	defer a.helpers.Done()
	for {
		select {
		case <-a.quit:
			return
		default:
		}
		select {
		case a.tokens <- struct{}{}:
		case <-a.quit:
			return
		}
		i := int(a.claimed.Add(1)) - 1
		if i >= len(a.order) {
			return
		}
		d, err := a.st.delta(a.order[i]-1, false)
		a.got[i] = decodedDelta{d, err}
		close(a.done[i])
	}
}

// step is st.step with delta n decoded ahead: it waits for the next
// delta of the order, hands its token back and steps r through it.
func (a *aheadDecoder) step(r *delta.Replay, n int, backward bool) error {
	i := a.taken
	if i >= len(a.order) || a.order[i] != n {
		return fmt.Errorf("vstore: read walk stepped to delta %d out of its planned order", n)
	}
	<-a.done[i]
	a.taken++
	<-a.tokens
	g := a.got[i]
	a.got[i] = decodedDelta{}
	if g.err != nil {
		return g.err
	}
	return replayStep(r, g.d, n, backward)
}

// stop ends the helpers and waits until they have exited.
func (a *aheadDecoder) stop() {
	close(a.quit)
	a.helpers.Wait()
}

// step decodes stored delta n, the one from version n to n+1, and
// steps r's document through it: forward, or backward through its
// inverse. The caller holds the state lock.
func (st *docState) step(r *delta.Replay, n int, backward bool) error {
	d, err := st.delta(n-1, false)
	if err != nil {
		return err
	}
	return replayStep(r, d, n, backward)
}

// replayStep steps r's document through d, stored delta n.
func replayStep(r *delta.Replay, d *delta.Delta, n int, backward bool) error {
	var err error
	if backward {
		err = r.Backward(d)
	} else {
		err = r.Forward(d)
	}
	if err != nil {
		return fmt.Errorf("delta %d does not apply: %w", n, err)
	}
	return nil
}

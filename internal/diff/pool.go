package diff

import (
	"sync"

	"xydiff/internal/dom"
)

// The server's worker pool runs diffs back to back; the annotation
// arrays and matcher maps dominated its allocation profile. Both are
// pooled: a diff draws trees and a matcher at the start and releases
// them before returning, so steady-state diffing reuses warm memory
// instead of churning the GC. Pooled objects hold no pointers into the
// documents after release.
var treePool = sync.Pool{New: func() any { return new(tree) }}

var matcherPool = sync.Pool{New: func() any { return new(matcher) }}

// release returns the tree's arrays to the pool. The nodes slice is
// cleared so the pool does not pin an entire released document in
// memory; the numeric arrays keep their capacity warm.
func (t *tree) release() {
	t.doc = nil
	clear(t.nodes)
	t.nodes = t.nodes[:0]
	treePool.Put(t)
}

// newMatcher annotates both documents and returns a pooled matcher over
// the two trees with nothing matched yet: the start of every arm (BULD,
// SFTM, FromMatching, ComposeVersions). With sigs — the BULD arms, the
// only readers — it also hashes subtree signatures and indexes them.
func newMatcher(oldDoc, newDoc *dom.Node, opts Options, sigs bool) *matcher {
	m := matcherPool.Get().(*matcher)
	m.reset(newTree(oldDoc, sigs, opts.done), newTree(newDoc, sigs, opts.done), opts)
	if sigs {
		m.indexSignatures()
	}
	return m
}

// release returns the matcher and its two trees to the pools. Map
// scratch is cleared on its next use, not here: a released matcher
// holds only indexes and signatures, no document pointers — except the
// queue and unique-child scratch, which are emptied now.
func (m *matcher) release() {
	m.old.release()
	m.new.release()
	m.old, m.new = nil, nil
	m.q = m.q[:0]
	clear(m.ukOld)
	clear(m.ukNew)
	matcherPool.Put(m)
}

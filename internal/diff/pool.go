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
// Once opts' done channel has fired the trees may be partial, so the
// index is skipped; the caller must check opts.canceled before reading
// either tree.
func newMatcher(oldDoc, newDoc *dom.Node, opts Options, sigs bool) *matcher {
	m := matcherPool.Get().(*matcher)
	m.reset(newTree(oldDoc, sigs, opts.done), newTree(newDoc, sigs, opts.done), opts)
	if sigs && !opts.canceled() {
		m.indexSignatures()
	}
	return m
}

// release returns the matcher and its two trees to the pools. Scratch
// is cleared or overwritten on its next use, not here: the signature
// index (sigID, sigOff, sigLive, byIdx, byPar, newSig, dupSig and the
// build's oldSig and newSeen) and the queue are pointer-free numbers,
// so a pooled matcher pins no document. Only the unique-child maps,
// keyed by label strings, are emptied now.
func (m *matcher) release() {
	m.old.release()
	m.new.release()
	m.old, m.new = nil, nil
	clear(m.ukOld)
	clear(m.ukNew)
	matcherPool.Put(m)
}

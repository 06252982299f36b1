// Package deltatest holds test helpers about deltas.
package deltatest

import (
	"runtime"
	"testing"
	"time"
	"weak"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// Subtrees watches the subtrees a delta's inserts and deletes carry, so
// that a test can tell whether anything still keeps them reachable
// after the delta itself is dropped.
type Subtrees struct {
	roots []weak.Pointer[dom.Node]
}

// WatchSubtrees starts watching d's insert and delete subtrees. d must
// have at least one of each, or t fails. The watch is a weak pointer to
// each subtree root: it also sees a root that sits inside a slab the
// delta's subtrees share, and a subtree whose nodes form cycles through
// their parent links, where a finalizer would not run.
func WatchSubtrees(t testing.TB, d *delta.Delta) *Subtrees {
	t.Helper()
	w := &Subtrees{}
	var ins, del int
	for i, op := range d.Ops {
		switch op.Kind {
		case delta.KindInsert:
			ins++
		case delta.KindDelete:
			del++
		default:
			continue
		}
		if op.Subtree == nil {
			t.Fatalf("op %d: an insert or delete without its subtree", i)
		}
		w.roots = append(w.roots, weak.Make(op.Subtree))
	}
	if ins == 0 || del == 0 {
		t.Fatalf("the delta has %d inserts and %d deletes, want both", ins, del)
	}
	return w
}

// Collected runs the collector until every watched subtree has been
// collected, or for at most about 100 ms, and returns how many were
// collected and how many are watched.
func (w *Subtrees) Collected() (freed, watched int64) {
	for i := 0; i < 20; i++ {
		runtime.GC()
		if freed = w.freed(); freed == int64(len(w.roots)) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	return freed, int64(len(w.roots))
}

// freed counts the watched roots the collector has reclaimed.
func (w *Subtrees) freed() int64 {
	n := int64(0)
	for _, r := range w.roots {
		if r.Value() == nil {
			n++
		}
	}
	return n
}

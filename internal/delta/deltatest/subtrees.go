// Package deltatest holds test helpers about deltas.
package deltatest

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
)

// Subtrees watches the subtrees a delta's inserts and deletes carry, so
// that a test can tell whether anything still keeps them reachable
// after the delta itself is dropped.
type Subtrees struct {
	watched int64
	freed   atomic.Int64
}

// WatchSubtrees starts watching d's insert and delete subtrees. d must
// have at least one of each, and each subtree root must have an
// attribute, or t fails. The watch is a finalizer on the root's
// attribute array, not on the root: a subtree's nodes form cycles
// through their parent links, and the runtime runs no finalizer on an
// object in a cycle. The array is the root's alone (the delta builder
// copies it) and points at nothing, so it is collected exactly when the
// root is.
func WatchSubtrees(t testing.TB, d *delta.Delta) *Subtrees {
	t.Helper()
	w := &Subtrees{}
	var ins, del int64
	for _, op := range d.Ops {
		var sub *dom.Node
		switch o := op.(type) {
		case delta.Insert:
			sub, ins = o.Subtree, ins+1
		case delta.Delete:
			sub, del = o.Subtree, del+1
		default:
			continue
		}
		if sub == nil || len(sub.Attrs) == 0 {
			t.Fatalf("op %v: give every inserted and deleted subtree root an attribute to watch", op)
		}
		runtime.SetFinalizer(&sub.Attrs[0], func(*dom.Attr) { w.freed.Add(1) })
	}
	if ins == 0 || del == 0 {
		t.Fatalf("the delta has %d inserts and %d deletes, want both", ins, del)
	}
	w.watched = ins + del
	return w
}

// Collected runs the collector until every watched subtree has been
// collected, or for at most about 100 ms, and returns how many were
// collected and how many are watched.
func (w *Subtrees) Collected() (freed, watched int64) {
	for i := 0; i < 20 && w.freed.Load() < w.watched; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	return w.freed.Load(), w.watched
}

package alert

import (
	"testing"

	"xydiff/internal/delta"
)

func TestChanNotifierReceivesAlerts(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t,
		`<Catalog><Category><Product><Name>a</Name></Product></Category></Catalog>`,
		`<Catalog><Category><Product><Name>a</Name></Product><Product><Name>b</Name></Product></Category></Catalog>`)
	a := New(Subscription{ID: "new-products", Path: "Category/Product", Kinds: []delta.Kind{delta.KindInsert}})
	n := NewChanNotifier("catalog", 4)
	a.Attach(n)

	got := a.Notify("catalog", 2, oldDoc, newDoc, d)
	if len(got) != 1 {
		t.Fatalf("Notify returned %d alerts, want 1", len(got))
	}
	select {
	case al := <-n.C():
		if al.SubID != "new-products" || al.DocID != "catalog" || al.Version != 2 {
			t.Errorf("streamed alert = %+v", al)
		}
	default:
		t.Fatal("no alert on the channel")
	}
	if n.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0", n.Dropped())
	}
}

func TestChanNotifierOverflowDrops(t *testing.T) {
	n := NewChanNotifier("d", 1)
	batch := []Alert{{SubID: "s", DocID: "d"}, {SubID: "s", DocID: "d"}, {SubID: "s", DocID: "d"}}
	n.Alerts(batch)
	if n.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", n.Dropped())
	}
	<-n.C()
	n.Alerts(batch[:1]) // buffer drained: delivers again
	select {
	case <-n.C():
	default:
		t.Error("post-drain alert not delivered")
	}
}

// TestChanNotifierKeepsOnlyItsDocument: a notifier for one document
// neither buffers nor counts as dropped another document's alerts, so a
// busy document cannot crowd a quiet one's alerts out of its buffer.
func TestChanNotifierKeepsOnlyItsDocument(t *testing.T) {
	n := NewChanNotifier("q", 1)
	n.Alerts([]Alert{{DocID: "b", Version: 2}, {DocID: "b", Version: 3}, {DocID: "q", Version: 2}, {DocID: "b", Version: 4}})
	if n.Dropped() != 0 {
		t.Errorf("dropped = %d, want 0: other documents' alerts are not this notifier's loss", n.Dropped())
	}
	if al := <-n.C(); al.DocID != "q" || al.Version != 2 {
		t.Errorf("delivered %+v, want q's alert", al)
	}
	n.Alerts([]Alert{{DocID: "q", Version: 3}, {DocID: "q", Version: 4}})
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1 of q's own alerts", n.Dropped())
	}
	n.Close()
	n.Alerts([]Alert{{DocID: "b", Version: 5}, {DocID: "q", Version: 5}})
	if n.Dropped() != 2 {
		t.Errorf("dropped = %d after Close, want 2: only q's late alert counts", n.Dropped())
	}
}

func TestDetachStopsDelivery(t *testing.T) {
	oldDoc, newDoc, d := diffPair(t, `<r><v>1</v></r>`, `<r><v>2</v></r>`)
	a := New(Subscription{ID: "all"})
	n := NewChanNotifier("doc", 8)
	a.Attach(n)
	if !a.Detach(n) {
		t.Fatal("Detach = false for an attached sink")
	}
	if a.Detach(n) {
		t.Fatal("Detach = true for a detached sink")
	}
	a.Notify("doc", 2, oldDoc, newDoc, d)
	select {
	case al := <-n.C():
		t.Errorf("received %v after Detach", al)
	default:
	}
}

func TestChanNotifierCloseIdempotent(t *testing.T) {
	n := NewChanNotifier("d", 1)
	n.Close()
	n.Close() // must not panic
	if _, ok := <-n.C(); ok {
		t.Error("channel not closed")
	}
	n.Alerts([]Alert{{SubID: "late", DocID: "d"}}) // must not panic; counts as dropped
	if n.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", n.Dropped())
	}
}

package alert

import "sync"

// Notifier is a sink for alerts as they are raised. Attached notifiers
// receive every batch of alerts a Notify call produces, synchronously
// and in Notify order, so an implementation must not block: buffer or
// drop instead.
type Notifier interface {
	Alerts([]Alert)
}

// Attach registers a sink that receives all future alert batches.
func (a *Alerter) Attach(n Notifier) {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.state.Load()
	sinks := append(append(make([]Notifier, 0, len(cur.sinks)+1), cur.sinks...), n)
	a.state.Store(cur.withSinks(sinks))
}

// Detach removes a previously attached sink, reporting whether it was
// attached.
func (a *Alerter) Detach(n Notifier) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	cur := a.state.Load()
	for i, s := range cur.sinks {
		if s == n {
			sinks := append(append(make([]Notifier, 0, len(cur.sinks)-1), cur.sinks[:i]...), cur.sinks[i+1:]...)
			a.state.Store(cur.withSinks(sinks))
			return true
		}
	}
	return false
}

// withSinks returns a copy of the snapshot with another sink list; the
// compiled subscriptions, which are never modified, are shared.
func (c *snapshot) withSinks(sinks []Notifier) *snapshot {
	next := *c
	next.sinks = sinks
	return &next
}

// ChanNotifier is a channel-backed in-process Notifier: alerts are
// delivered one by one on C without ever blocking the alerter — when
// the buffer is full, alerts are counted as dropped instead. This is
// what lets a server stream matches to a subscriber instead of having
// it poll. A notifier takes in only its own document's alerts, so
// another document's traffic neither fills its buffer nor counts as its
// loss.
type ChanNotifier struct {
	ch    chan Alert
	docID string

	mu      sync.Mutex
	dropped int
	closed  bool
}

// NewChanNotifier returns a notifier buffering up to buf alerts
// (minimum 1) about document docID.
func NewChanNotifier(docID string, buf int) *ChanNotifier {
	if buf < 1 {
		buf = 1
	}
	return &ChanNotifier{ch: make(chan Alert, buf), docID: docID}
}

// C is the delivery channel. It is closed by Close.
func (c *ChanNotifier) C() <-chan Alert { return c.ch }

// Alerts implements Notifier with a non-blocking send per alert about
// the notifier's document; alerts about other documents are skipped.
func (c *ChanNotifier) Alerts(alerts []Alert) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, a := range alerts {
		if a.DocID != c.docID {
			continue
		}
		if c.closed {
			c.dropped++
			continue
		}
		select {
		case c.ch <- a:
		default:
			c.dropped++
		}
	}
}

// Dropped returns how many of its document's alerts the notifier
// discarded because the buffer was full (or the notifier closed).
func (c *ChanNotifier) Dropped() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// Close closes the delivery channel. Callers should Detach the notifier
// from the alerter first; alerts arriving after Close are counted as
// dropped. Close is idempotent.
func (c *ChanNotifier) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.closed = true
		close(c.ch)
	}
}

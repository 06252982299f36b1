package server

import (
	"sync"

	"xydiff/internal/alert"
)

// alertLogSize is how many of a document's most recent alerts the log
// keeps: what a poll returns, and how far behind a stream may fall
// before it loses alerts.
const alertLogSize = 1024

// alertLog is the server's one alert delivery path. It keeps each
// document's most recent alerts and numbers them in the order they were
// raised. A poll (GET /docs/{id}/alerts) reads what is kept; a stream
// (?follow=) holds a cursor into the numbering and reads what lies past
// it each time the document's log grows. Alerts trimmed before a stream
// read them are its loss, and it learns how many.
type alertLog struct {
	mu    sync.Mutex
	cap   int
	byDoc map[string]*docAlerts
}

// docAlerts is one document's log: alerts holds the alerts numbered
// next-len(alerts) through next-1, oldest first.
type docAlerts struct {
	alerts  []alert.Alert
	next    int
	streams int           // open streams of the document
	grown   chan struct{} // closed by the next add; nil while no stream waits
}

func newAlertLog(capPerDoc int) *alertLog {
	if capPerDoc < 1 {
		capPerDoc = 1
	}
	return &alertLog{cap: capPerDoc, byDoc: make(map[string]*docAlerts)}
}

// doc returns id's log, creating it. Callers hold l.mu.
func (l *alertLog) doc(id string) *docAlerts {
	d := l.byDoc[id]
	if d == nil {
		d = &docAlerts{}
		l.byDoc[id] = d
	}
	return d
}

// add appends a batch, keeping each document's most recent cap alerts,
// and wakes the streams waiting on those documents only. The log is
// trimmed once per run of alerts for one document (a Notify batch is
// one such run), not once per alert.
func (l *alertLog) add(alerts []alert.Alert) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(alerts) > 0 {
		id := alerts[0].DocID
		n := 1
		for n < len(alerts) && alerts[n].DocID == id {
			n++
		}
		batch := alerts[:n]
		alerts = alerts[n:]
		d := l.doc(id)
		d.next += len(batch)
		if len(batch) > l.cap {
			batch = batch[len(batch)-l.cap:]
		}
		log := d.alerts
		// Make room first, and grow by hand: append's own growth would
		// overshoot, and this array lives as long as the document.
		if over := len(log) + len(batch) - l.cap; over > 0 {
			log = append(log[:0], log[over:]...)
		}
		if need := len(log) + len(batch); need > cap(log) {
			bigger := make([]alert.Alert, len(log), min(l.cap, max(need, cap(log)+cap(log)/4)))
			copy(bigger, log)
			log = bigger
		}
		d.alerts = append(log, batch...)
		if d.grown != nil {
			close(d.grown)
			d.grown = nil
		}
	}
}

func (l *alertLog) forDoc(id string) []alert.Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	var kept []alert.Alert
	if d := l.byDoc[id]; d != nil {
		kept = d.alerts
	}
	out := make([]alert.Alert, len(kept))
	copy(out, kept)
	return out
}

// follow opens a stream of id's alerts. It returns the document's log
// and the number its next alert will get, the stream's first cursor.
// Every follow is paired with one unfollow.
func (l *alertLog) follow(id string) (*docAlerts, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d := l.doc(id)
	d.streams++
	return d, d.next
}

// unfollow closes a stream opened by follow. A document left with
// neither alerts nor streams has its log freed.
func (l *alertLog) unfollow(id string, d *docAlerts) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d.streams--
	if d.streams == 0 && len(d.alerts) == 0 {
		delete(l.byDoc, id)
	}
}

// since copies into buf the alerts of d numbered from cursor on, as
// many as fit. It returns how many it copied; how many numbers past the
// cursor the log had trimmed before they could be read, which come
// first, so the next cursor is cursor+lost+n; and a channel that is
// ready once there may be more to read: already closed when it copied
// alerts, otherwise closed by the next add to d.
func (l *alertLog) since(d *docAlerts, cursor int, buf []alert.Alert) (n, lost int, more <-chan struct{}) {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := d.next - len(d.alerts)
	if cursor < first {
		lost, cursor = first-cursor, first
	}
	if cursor < d.next {
		return copy(buf, d.alerts[cursor-first:]), lost, readNow
	}
	if d.grown == nil {
		d.grown = make(chan struct{})
	}
	return 0, lost, d.grown
}

// readNow is a closed channel: the next read need not wait.
var readNow = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

package server

import (
	"sync"

	"xydiff/internal/alert"
)

// alertLog keeps the most recent alerts per document so GET
// /docs/{id}/alerts can answer without a live subscription; streaming
// consumers use the alerter's ChanNotifier instead.
type alertLog struct {
	mu    sync.Mutex
	cap   int
	byDoc map[string][]alert.Alert
}

func newAlertLog(capPerDoc int) *alertLog {
	if capPerDoc < 1 {
		capPerDoc = 1
	}
	return &alertLog{cap: capPerDoc, byDoc: make(map[string][]alert.Alert)}
}

// add appends a batch, keeping each document's most recent cap alerts.
// The log is trimmed once per run of alerts for one document (a Notify
// batch is one such run), not once per alert.
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
		if len(batch) > l.cap {
			batch = batch[len(batch)-l.cap:]
		}
		log := l.byDoc[id]
		// Make room first, and grow by hand: append's own growth would
		// overshoot, and this array lives as long as the document.
		if over := len(log) + len(batch) - l.cap; over > 0 {
			log = append(log[:0], log[over:]...)
		}
		if need := len(log) + len(batch); need > cap(log) {
			grown := make([]alert.Alert, len(log), min(l.cap, max(need, cap(log)+cap(log)/4)))
			copy(grown, log)
			log = grown
		}
		l.byDoc[id] = append(log, batch...)
	}
}

func (l *alertLog) forDoc(id string) []alert.Alert {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]alert.Alert, len(l.byDoc[id]))
	copy(out, l.byDoc[id])
	return out
}

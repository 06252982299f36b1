package vstore

import (
	"errors"
	"fmt"
)

// Degraded mode is the contract for documents with a quarantined slice
// of history: the store keeps serving every version it can still prove
// intact and answers for the rest with a typed error instead of a 404
// (the version did exist) or a 500 (nothing is broken in the request).
// The HTTP layer maps a *DegradedError to 410 Gone plus a Warning header,
// and flags successful reads of a degraded document with the same
// Warning so operators learn about the damage from normal traffic, not
// only from /healthz.

// errDegraded matches (errors.Is) every DegradedError.
var errDegraded = errors.New("vstore: document degraded")

// DegradedError reports a request that ran into a document's
// quarantined history.
type DegradedError struct {
	// id is the degraded document.
	id string
	// Reason says what was quarantined and why.
	Reason string
	// Intact is how many leading versions still serve (0 when the whole
	// document is gone).
	Intact int
}

func (e *DegradedError) Error() string {
	if e.Intact > 0 {
		return fmt.Sprintf("vstore: document %q degraded (versions 1..%d intact): %s", e.id, e.Intact, e.Reason)
	}
	return fmt.Sprintf("vstore: document %q degraded (no intact versions): %s", e.id, e.Reason)
}

func (e *DegradedError) Is(target error) bool { return target == errDegraded }

// markDegradedLocked flips the document into degraded mode; the caller
// holds st.mu (write). Returns true on the first flip (so counters
// move once); re-marking keeps the original reason — the first damage
// report is the root cause.
func (s *Store) markDegradedLocked(sh *shard, st *docState, reason string) bool {
	if st.degraded {
		return false
	}
	st.degraded = true
	st.degradedReason = reason
	sh.stats.degraded.Add(1)
	return true
}

// Degraded reports whether id serves degraded, and why. The HTTP layer
// uses it to stamp Warning headers on otherwise-successful reads.
func (s *Store) Degraded(id string) (bool, string) {
	st := s.shardFor(id).lookup(id)
	if st == nil {
		return false, ""
	}
	st.mu.RLock()
	defer st.mu.RUnlock()
	return st.degraded, st.degradedReason
}

// degradedDocs is how many documents currently serve degraded.
func (s *Store) degradedDocs() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.stats.degraded.Load()
	}
	return n
}

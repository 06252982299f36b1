// Package store holds the types of the version repository's surface:
// the errors it returns, its sync policy, what it tells an observer
// and reports about a Put, its durability and recovery counters, and
// the results of its temporal queries. The engine itself is
// internal/vstore; the server, the commands and the benchmark name
// these types through this package.
package store

import (
	"fmt"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// SyncPolicy says when journal appends reach stable storage.
type SyncPolicy int

// Journal sync policies.
const (
	// SyncAlways fsyncs the journal before a Put is acknowledged: an
	// acknowledged version survives power loss.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a timer (every 100ms, the constant
	// syncInterval in internal/vstore): a crash loses at most the last
	// interval's acknowledged versions.
	SyncInterval
	// syncOff never fsyncs explicitly; the OS flushes when it pleases.
	// A kernel crash or power loss can lose recent acknowledged
	// versions, a plain process crash cannot.
	syncOff
)

// String renders the flag spelling of the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case syncOff:
		return "off"
	default:
		return fmt.Sprintf("syncpolicy(%d)", int(p))
	}
}

// ParseSyncPolicy reads the flag spelling of a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return syncOff, nil
	default:
		return 0, fmt.Errorf("store: unknown sync policy %q (want always, interval or off)", s)
	}
}

// Observation is what an Observer is told about one successful
// non-initial Put.
type Observation struct {
	ID      string
	Version int // the version the delta produced
	// Old and New are the store's previous and new latest documents,
	// with the XIDs the delta refers to.
	Old, New *dom.Node
	// Result is the diff result: the delta plus phase timings.
	Result *diff.Result
	// DeltaBytes is the length of the delta's XML encoding. The store
	// encodes each delta once, for its journal record; an observer that
	// wants the size reads it here instead of encoding the delta again.
	DeltaBytes int
}

// Observer receives every successful non-initial Put: a first version
// is not a transition and is not observed. It is invoked synchronously
// under the document's lock, so per-document call order matches
// version order; it must not call back into the store for the same
// document, must not mutate the document trees, and must not retain
// them — or anything pointing into them, such as a delta.Targets — past
// its return. (The delta's ops are immutable and may be kept.) The
// consumers of Figure 1 hang off this hook as one warehouse.Pipeline:
// the server's observer and the library warehouse's both call it.
type Observer func(Observation)

// PutResult is what a detailed Put reports about an installed version.
type PutResult struct {
	Version int
	// Delta leads from the previous version to this one; nil for the
	// first version.
	Delta *delta.Delta
	// DeltaBytes is the length of Delta's XML encoding — of the bytes
	// the journal record carries and Aggregate(id, Version-1, Version)
	// serializes to — or 0 for the first version.
	DeltaBytes int
}

// DurabilityStats counts journal activity since the store opened.
type DurabilityStats struct {
	// Appends is how many journal records were written.
	Appends int64
	// AppendedBytes is the total size of those records, headers included.
	AppendedBytes int64
	// Syncs is how many journal fsyncs completed.
	Syncs int64
	// Checkpoints is how many snapshot+compaction cycles completed.
	Checkpoints int64
}

// RecoveryStats reports what opening a store reconstructed from disk.
type RecoveryStats struct {
	// Documents is how many documents were recovered.
	Documents int
	// SnapshotVersions is how many versions came from snapshots.
	SnapshotVersions int
	// JournalRecords is how many journal records were replayed into
	// versions the snapshot did not cover.
	JournalRecords int
	// JournalSkipped is how many journal records were already covered
	// by a snapshot (a crash between snapshot rename and journal
	// retirement leaves such records behind; they are harmless).
	JournalSkipped int
	// TornTails is how many journals ended in a partial record (a
	// crash mid-append) that recovery truncated away. A torn record's
	// version was never acknowledged, so nothing is lost.
	TornTails int
	// JournalBytes is the total size of the replayed journal files.
	JournalBytes int64
	// Quarantined counts corrupt files recovery set aside (renamed,
	// never deleted) instead of refusing to open; only a store opened
	// degraded-tolerant populates it.
	Quarantined int
	// DegradedDocs counts documents left serving degraded — their
	// latest intact version — because part of their history was
	// quarantined.
	DegradedDocs int
}

// VersionValue is one point of a Timeline: the value of an expression
// at one version.
type VersionValue struct {
	Version int
	Found   bool
	Value   string
}

// NodeState describes one persistent node (addressed by XID) at one
// version.
type NodeState struct {
	Version int
	Present bool
	Path    string
	Value   string // text content of the subtree
}

// ChangeHit is one delta operation selected by ChangesMatching.
type ChangeHit struct {
	// Version is the version the operation produced (the op belongs to
	// the delta from Version-1 to Version).
	Version int
	Op      delta.Op
	// Path locates the affected node (in the new version when it still
	// exists there, otherwise in the old one).
	Path string
}

// Package store holds the journal sync policy and nothing else. The
// benchmark harness (benchmark/) names it as store.SyncAlways, and that
// harness is changed only on purpose, so the policy stays here while
// the rest of the version repository, engine and surface alike, is
// internal/vstore.
package store

import "fmt"

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

// Package scrub is the layout-independent core of the self-healing
// storage layer: the pieces of background integrity checking that do
// not depend on any one on-disk layout. The storage engine
// (internal/vstore) supplies a pass function that walks its own files;
// this package supplies
//
//   - the background Runner that invokes the pass on a timer, one
//     cycle at a time, with clean shutdown;
//   - the IO Throttle that paces scrub reads so a cycle never competes
//     with foreground traffic for disk bandwidth;
//   - the CRC log-frame walker (verify.go) shared by every
//     length-prefixed CRC32-C journal in the repo;
//   - Quarantine, the rename-aside-never-delete discipline for files
//     that failed verification and cannot be repaired;
//   - the Report/Finding vocabulary the engine, the HTTP layer and
//     the CLI all speak.
//
// The design follows the differential-testing discipline the repo
// already applies to the diff core: never trust a single path. Data is
// verified against its checksums on a schedule, not only when a read
// happens to land on it, so bit rot is found while the redundancy
// needed to repair it still exists.
package scrub

import (
	"context"
	"sync"
	"time"
)

// DefaultThrottle is the scrub read budget when a configured throttle
// is 0: 8 MiB/s, slow enough to hide under foreground traffic, fast
// enough to cover tens of gigabytes per day.
const DefaultThrottle int64 = 8 << 20

// Action says what the scrubber did about one finding.
type Action string

// The actions a finding can end in.
const (
	// ActionDetected: damage found, nothing changed on disk (repair
	// disabled or detection-only pass).
	ActionDetected Action = "detected"
	// ActionRepaired: the damaged file was re-materialized from
	// redundant data and atomically rewritten or retired.
	ActionRepaired Action = "repaired"
	// ActionQuarantined: the file was renamed aside (never deleted) and
	// the documents it covered entered degraded mode.
	ActionQuarantined Action = "quarantined"
)

// Finding is one verified corruption: where, what, and what was done.
type Finding struct {
	// Path is the damaged file (or directory, for snapshot sets).
	Path string `json:"path"`
	// Offset is the byte offset of the damage, -1 for whole-file
	// failures (unreadable, unparseable, chain mismatch).
	Offset int64 `json:"offset"`
	// Reason says what check failed.
	Reason string `json:"reason"`
	// Action is what the scrubber did about it.
	Action Action `json:"action"`
}

// Report is what one scrub cycle saw and did.
type Report struct {
	// BytesScanned is how many file bytes the cycle read and verified.
	BytesScanned int64 `json:"bytesScanned"`
	// RecordsVerified counts CRC-checked log records.
	RecordsVerified int64 `json:"recordsVerified"`
	// SegmentsScanned and SnapshotsScanned count the files/sets walked.
	SegmentsScanned  int64 `json:"segmentsScanned"`
	SnapshotsScanned int64 `json:"snapshotsScanned"`
	// Found/Repaired/Quarantined count corruptions by outcome; Found
	// includes every finding regardless of action.
	Found       int64 `json:"found"`
	Repaired    int64 `json:"repaired"`
	Quarantined int64 `json:"quarantined"`
	// Degraded is how many documents entered degraded mode this cycle.
	Degraded int64 `json:"degraded"`
	// Duration is how long the cycle took, throttle sleeps included.
	Duration time.Duration `json:"duration"`
	// Findings details every corruption (bounded by the caller).
	Findings []Finding `json:"findings,omitempty"`
}

// merge folds a finding into the report's counters.
func (r *Report) Note(f Finding) {
	r.Found++
	switch f.Action {
	case ActionRepaired:
		r.Repaired++
	case ActionQuarantined:
		r.Quarantined++
	}
	if len(r.Findings) < maxFindings {
		r.Findings = append(r.Findings, f)
	}
}

// maxFindings bounds the per-report detail list; the counters keep the
// full truth even when a pathological disk overflows the list.
const maxFindings = 256

// PassFunc is one full verification cycle over an engine's files. It
// must honour ctx (a canceled context ends the cycle early) and pace
// its reads through the given throttle.
type PassFunc func(ctx context.Context) (Report, error)

// Runner drives a PassFunc on a timer: one cycle at a time, never
// overlapping, stoppable. The zero value is not usable; use NewRunner.
type Runner struct {
	interval time.Duration
	pass     PassFunc

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	mu      sync.Mutex
	cycles  int64
	lastErr error
	last    Report
	lastAt  time.Time
}

// NewRunner prepares (but does not start) a background scrubber that
// runs pass every interval.
func NewRunner(interval time.Duration, pass PassFunc) *Runner {
	return &Runner{
		interval: interval,
		pass:     pass,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Run loops until Stop (or ctx cancellation): sleep one interval, run
// one cycle, repeat. The first cycle runs one interval after Run
// starts, so a freshly opened store pays recovery, not recovery plus an
// immediate full scan. Call it on its own goroutine.
func (r *Runner) Run(ctx context.Context) {
	defer close(r.done)
	t := time.NewTimer(r.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-r.stop:
			return
		case <-t.C:
		}
		rep, err := r.pass(ctx)
		r.mu.Lock()
		r.cycles++
		r.last, r.lastErr, r.lastAt = rep, err, time.Now()
		r.mu.Unlock()
		t.Reset(r.interval)
	}
}

// Stop ends the loop; it returns once the in-flight cycle (if any)
// finished. Safe to call more than once.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	<-r.done
}

// Last returns the most recent cycle's report, its completion time and
// error, plus how many cycles completed (0 means none yet).
func (r *Runner) Last() (rep Report, at time.Time, err error, cycles int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.last, r.lastAt, r.lastErr, r.cycles
}

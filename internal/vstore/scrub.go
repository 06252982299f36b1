package vstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"xydiff/internal/faultfs"
)

// The scrubber turns the engine's passive corruption detection (a bad
// CRC surfaces whenever recovery or a read happens to touch it) into
// active self-healing: every sealed segment and every snapshot is
// re-verified on a timer, while the redundancy needed to repair damage
// still exists, so bit rot is found before it is the only copy.
//
// The key property making runtime repair always possible: every
// acknowledged byte is resident. A document's state holds its full
// serialized chain (base + deltas), loaded at recovery and appended at
// Put, so a damaged file is never the only copy while the store is
// open — repair re-materializes from the resident chain through the
// same write → fsync → rename → retire path compaction uses. Only
// when repair is disabled (or itself fails) does the scrubber fall
// back to quarantine: the file is renamed aside — never deleted — and
// the documents it may have covered enter degraded mode.

// defaultScrubThrottle is the scrub read budget when the configured
// throttle is 0: 8 MiB/s, slow enough to hide under foreground traffic,
// fast enough to cover tens of gigabytes per day.
const defaultScrubThrottle int64 = 8 << 20

// ScrubAction says what the scrubber did about one finding.
type ScrubAction string

// The actions a finding can end in.
const (
	// scrubDetected: damage found, nothing changed on disk (repair
	// disabled or detection-only pass).
	scrubDetected ScrubAction = "detected"
	// scrubRepaired: the damaged file was re-materialized from resident
	// data and atomically rewritten or retired.
	scrubRepaired ScrubAction = "repaired"
	// scrubQuarantined: the file was renamed aside (never deleted) and
	// the documents it covered entered degraded mode.
	scrubQuarantined ScrubAction = "quarantined"
)

// ScrubFinding is one verified corruption: where, what, and what was
// done.
type ScrubFinding struct {
	// Path is the damaged file (or directory, for snapshot sets).
	Path string `json:"path"`
	// Offset is the byte offset of the damage, -1 for whole-file
	// failures (unreadable, unparseable, chain mismatch).
	Offset int64 `json:"offset"`
	// Reason says what check failed.
	Reason string `json:"reason"`
	// Action is what the scrubber did about it.
	Action ScrubAction `json:"action"`
}

// ScrubReport is what one scrub cycle saw and did.
type ScrubReport struct {
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
	// Findings details every corruption (bounded by maxFindings).
	Findings []ScrubFinding `json:"findings,omitempty"`
}

// maxFindings bounds the per-report detail list; the counters keep the
// full truth even when a pathological disk overflows the list.
const maxFindings = 256

// note folds a finding into the report's counters.
func (r *ScrubReport) note(f ScrubFinding) {
	r.Found++
	switch f.Action {
	case scrubRepaired:
		r.Repaired++
	case scrubQuarantined:
		r.Quarantined++
	}
	if len(r.Findings) < maxFindings {
		r.Findings = append(r.Findings, f)
	}
}

// scrubLoop is the background scrubber: it sleeps one interval, runs
// one cycle, and repeats until ctx is canceled (by Close), which also
// ends the cycle in flight. The first cycle runs one interval after
// Open, so a freshly opened store pays recovery, not recovery plus an
// immediate full scan.
func (s *Store) scrubLoop(ctx context.Context) {
	defer s.loops.Done()
	t := time.NewTimer(s.cfg.Scrub.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		_, _ = s.ScrubPass(ctx) // the pass keeps its own statistics
		t.Reset(s.cfg.Scrub.Interval)
	}
}

// ScrubPass runs one full integrity cycle over every shard: sealed
// segments are CRC-walked record by record, snapshots are cross-checked
// byte-for-byte against the resident version chains and their checksum
// manifests. Reads are paced by Config.Scrub.Throttle. Damage is
// repaired or quarantined per Config.Scrub.NoRepair. Safe to call
// concurrently with Puts and reads; a canceled ctx ends the pass early
// (the partial report is still returned and counted). A store without a
// directory has no files to verify.
func (s *Store) ScrubPass(ctx context.Context) (ScrubReport, error) {
	if s.dir == "" {
		return ScrubReport{}, ctx.Err()
	}
	start := time.Now()
	th := newThrottle(s.scrubRate())
	var rep ScrubReport
	for _, sh := range s.shards {
		if ctx.Err() != nil {
			break
		}
		s.scrubSegments(ctx, sh, th, &rep)
		s.scrubSnapshots(ctx, sh, th, &rep)
	}
	rep.Duration = time.Since(start)
	s.stats.scrubCycles.Add(1)
	s.stats.scrubBytes.Add(rep.BytesScanned)
	s.stats.scrubRecords.Add(rep.RecordsVerified)
	s.stats.scrubFound.Add(rep.Found)
	s.stats.scrubRepaired.Add(rep.Repaired)
	s.stats.scrubQuarantined.Add(rep.Quarantined)
	s.stats.scrubLastUnix.Store(time.Now().Unix())
	s.stats.scrubLastNanos.Store(int64(rep.Duration))
	return rep, ctx.Err()
}

// scrubRate resolves the configured throttle: 0 means the default,
// negative means unlimited.
func (s *Store) scrubRate() int64 {
	if s.cfg.Scrub.Throttle == 0 {
		return defaultScrubThrottle
	}
	return s.cfg.Scrub.Throttle
}

// throttle is a token bucket pacing one scrub pass's reads to a
// byte-per-second budget, so a background cycle never competes with
// foreground traffic for the disk. Each pass makes its own and uses it
// from one goroutine. A nil *throttle is valid and means "unlimited".
type throttle struct {
	rate    float64   // tokens (bytes) added per second
	tokens  float64   // current fill, at most one second's budget
	lastAdd time.Time // when tokens was last brought current

	// sleep is swapped in tests for determinism.
	sleep func(ctx context.Context, d time.Duration) error
}

// newThrottle builds a throttle allowing bytesPerSec of IO, with a
// burst of one second's budget. bytesPerSec <= 0 returns nil
// (unlimited).
func newThrottle(bytesPerSec int64) *throttle {
	if bytesPerSec <= 0 {
		return nil
	}
	return &throttle{
		rate:    float64(bytesPerSec),
		tokens:  float64(bytesPerSec),
		lastAdd: time.Now(),
		sleep:   sleepCtx,
	}
}

// take charges n bytes to the budget, sleeping off any overdraft, and
// returns early with ctx's error once ctx is done. The bucket may go
// negative, so a read larger than the burst waits proportionally
// longer instead of never fitting.
func (t *throttle) take(ctx context.Context, n int64) error {
	if t == nil || n <= 0 {
		return ctx.Err()
	}
	now := time.Now()
	t.tokens = min(t.tokens+now.Sub(t.lastAdd).Seconds()*t.rate, t.rate)
	t.lastAdd = now
	t.tokens -= float64(n)
	if t.tokens < 0 {
		return t.sleep(ctx, time.Duration(-t.tokens/t.rate*float64(time.Second)))
	}
	return ctx.Err()
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// scrubRead reads path for a pass: its bytes count as scanned, and are
// charged to the pass's throttle after the read, so a canceled ctx
// returns its error with them.
func (s *Store) scrubRead(ctx context.Context, path string, th *throttle, rep *ScrubReport) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep.BytesScanned += int64(len(b))
	return b, th.take(ctx, int64(len(b)))
}

// scrubSegments verifies one shard's sealed segments. The active
// segment is skipped — it has a writer and a legitimate torn tail is
// possible mid-append; it becomes scannable once sealed. A segment
// retired by compaction between listing and read is silently skipped.
func (s *Store) scrubSegments(ctx context.Context, sh *shard, th *throttle, rep *ScrubReport) {
	seqs := sh.segmentsOnDisk(s.fs)
	// Read the active sequence AFTER listing: sealed sequence numbers
	// are always below it, so a rotation racing the listing can only
	// reclassify a just-sealed segment as still-active (scanned next
	// cycle), never the reverse.
	active, _ := sh.seg.activeSeq()
	for _, seq := range seqs {
		if seq >= active {
			continue
		}
		path := filepath.Join(sh.dir, segName(seq))
		data, err := s.scrubRead(ctx, path, th, rep)
		switch {
		case ctx.Err() != nil:
			return
		case errors.Is(err, os.ErrNotExist):
			continue // retired since the listing
		case err != nil:
			s.segmentDamage(sh, path, rep, -1, fmt.Sprintf("read failed: %v", err))
			continue
		}
		rep.SegmentsScanned++
		records := int64(0)
		d := walkLog(data, func(off int64, payload []byte) error {
			if _, _, _, _, derr := decodePayload(payload); derr != nil {
				return derr
			}
			records++
			return nil
		})
		rep.RecordsVerified += records
		if d != nil {
			// A sealed segment has no writer: even a "torn tail" here
			// is at-rest damage, not a crash artifact (recovery
			// truncated genuine torn tails before the seal).
			s.segmentDamage(sh, path, rep, d.off, d.reason)
		}
	}
}

// segmentDamage handles one damaged sealed segment: repair when
// allowed, quarantine + degrade otherwise.
func (s *Store) segmentDamage(sh *shard, path string, rep *ScrubReport, off int64, reason string) {
	f := ScrubFinding{Path: path, Offset: off, Reason: reason, Action: scrubDetected}
	if !s.cfg.Scrub.NoRepair {
		if err := s.repairShard(sh); err == nil {
			if _, serr := s.fs.Stat(path); serr != nil {
				// The repair's retire step removed the damaged file:
				// everything it held is re-secured in fresh snapshots.
				f.Action = scrubRepaired
				rep.note(f)
				return
			}
		}
	}
	sh.compactMu.Lock()
	if _, err := s.fs.Stat(path); err == nil {
		if _, qerr := quarantine(s.fs, path); qerr == nil {
			f.Action = scrubQuarantined
			sh.stats.quarantined.Add(1)
		}
	}
	rep.Degraded += int64(s.degradeUncovered(sh, fmt.Sprintf("segment %s quarantined: %s", filepath.Base(path), reason)))
	sh.compactMu.Unlock()
	rep.note(f)
}

// quarantineSuffix marks files set aside by the scrubber or by a
// degraded open. Quarantined files are renamed, never deleted — an
// operator (or a smarter future repair) can still inspect the bytes.
const quarantineSuffix = ".quarantine"

// quarantine renames path aside with quarantineSuffix and returns the
// new name. If that name is already taken (a file quarantined twice
// across restarts), numbered suffixes are tried.
func quarantine(fsys faultfs.FS, path string) (string, error) {
	dst := path + quarantineSuffix
	for i := 1; ; i++ {
		if _, err := fsys.Stat(dst); err != nil {
			break
		}
		if i > 1000 {
			return "", fmt.Errorf("quarantine %s: too many existing quarantine files", path)
		}
		dst = fmt.Sprintf("%s%s.%d", path, quarantineSuffix, i)
	}
	if err := fsys.Rename(path, dst); err != nil {
		return "", fmt.Errorf("quarantine %s: %w", path, err)
	}
	return dst, nil
}

// repairShard re-secures a shard after a sealed segment failed
// verification. Every acknowledged byte is still resident, so repair
// is exactly a compaction pass: seal, fold every document into fresh
// snapshots (write → fsync → rename), then retire the sealed segments
// — the damaged one is superseded and removed by the same retire step
// compaction always uses.
func (s *Store) repairShard(sh *shard) error {
	if err := s.compactShard(sh); err != nil {
		return err
	}
	s.stats.compactions.Add(1)
	return nil
}

// degradeUncovered flags every document whose history extends beyond
// its intact snapshot: with a segment quarantined, those tail versions
// can no longer be proven durable. The marking is conservative — the
// quarantined records' document ids are unreadable, so any document
// relying on segments is flagged. The caller holds sh.compactMu.
func (s *Store) degradeUncovered(sh *shard, reason string) int {
	sh.mu.RLock()
	states := make([]*docState, 0, len(sh.docs))
	for _, st := range sh.docs {
		states = append(states, st)
	}
	sh.mu.RUnlock()
	n := 0
	for _, st := range states {
		st.mu.Lock()
		if st.versions == 0 || st.snapVersions < st.versions {
			if s.markDegradedLocked(sh, st, reason) {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// scrubSnapshots verifies one shard's snapshot directories against the
// resident version chains.
func (s *Store) scrubSnapshots(ctx context.Context, sh *shard, th *throttle, rep *ScrubReport) {
	docsDir := filepath.Join(sh.dir, docsDirName)
	entries, err := s.fs.ReadDir(docsDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || strings.Contains(e.Name(), quarantineSuffix) {
			continue
		}
		id := unescapeID(e.Name())
		st := sh.lookup(id)
		if st == nil {
			continue // orphan directory; not ours to judge
		}
		sub := filepath.Join(docsDir, e.Name())
		err := s.verifySnapshot(ctx, st, sub, th, rep)
		if ctx.Err() != nil {
			return // canceled mid-verify, not damage
		}
		if err != nil {
			s.snapshotDamage(sh, id, st, sub, rep, err.Error())
		}
	}
}

// verifySnapshot checks one document's on-disk snapshot under the
// document's read lock (which excludes a concurrent rewrite): the
// counter must match the resident snapshot point, and every content
// file must decode as recovery decodes it (walkSnapshot) and
// byte-match the resident chain's XML, rendered from frames, the chain
// that reconstructs every version. A nil error means intact.
func (s *Store) verifySnapshot(ctx context.Context, st *docState, sub string, th *throttle, rep *ScrubReport) error {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.snapVersions == 0 {
		// No authoritative snapshot expected: nothing to verify. (A
		// half-written directory without a counter is replaced wholesale
		// by the next compaction.)
		return nil
	}
	read := func(name string) ([]byte, error) {
		return s.scrubRead(ctx, filepath.Join(sub, name), th, rep)
	}
	c, err := snapshotVersions(sub, read)
	if err != nil {
		return err
	}
	if c != st.snapVersions {
		return fmt.Errorf("version counter reads %d, resident snapshot point is %d", c, st.snapVersions)
	}
	err = walkSnapshot(sub, c, read, func(i int, _, part []byte) error {
		p, kind := st.base, baseXML
		if i > 0 {
			p, kind = st.deltas[i-1], deltaXML
		}
		want, err := p.xml(kind)
		if err != nil {
			return fmt.Errorf("resident %s does not render: %w", partFile(i), err)
		}
		if !bytes.Equal(part, want) {
			return fmt.Errorf("%s diverges from the resident version chain", partFile(i))
		}
		return nil
	})
	if err == nil {
		rep.SnapshotsScanned++
	}
	return err
}

// snapshotDamage handles one damaged snapshot: a full rewrite from the
// resident chain when repair is allowed, quarantine + degraded mode
// otherwise.
func (s *Store) snapshotDamage(sh *shard, id string, st *docState, sub string, rep *ScrubReport, reason string) {
	f := ScrubFinding{Path: sub, Offset: -1, Reason: reason, Action: scrubDetected}
	if !s.cfg.Scrub.NoRepair {
		sh.compactMu.Lock()
		err := s.snapshotDoc(sh, id, st, true)
		sh.compactMu.Unlock()
		if err == nil {
			f.Action = scrubRepaired
			rep.note(f)
			return
		}
	}
	sh.compactMu.Lock()
	if _, err := s.fs.Stat(sub); err == nil {
		if _, qerr := quarantine(s.fs, sub); qerr == nil {
			f.Action = scrubQuarantined
			sh.stats.quarantined.Add(1)
		}
	}
	st.mu.Lock()
	if s.markDegradedLocked(sh, st, fmt.Sprintf("snapshot quarantined: %s", reason)) {
		rep.Degraded++
	}
	// No snapshot on disk anymore: the next compaction pass writes a
	// fresh full one from the resident chain.
	st.snapVersions = 0
	sh.setSnapshotBytes(st, snapBytes{})
	st.mu.Unlock()
	sh.compactMu.Unlock()
	rep.note(f)
}

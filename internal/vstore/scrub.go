package vstore

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"xydiff/internal/scrub"
)

// The scrubber turns the engine's passive corruption detection (a bad
// CRC surfaces whenever recovery or a read happens to touch it) into
// active self-healing: every sealed segment and every snapshot is
// re-verified on a timer, while the redundancy needed to repair damage
// still exists.
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

// ScrubPass runs one full integrity cycle over every shard: sealed
// segments are CRC-walked record by record, snapshots are cross-checked
// byte-for-byte against the resident version chains and their checksum
// manifests. Reads are paced by Config.Scrub.Throttle. Damage is
// repaired or quarantined per Config.Scrub.NoRepair. Safe to call
// concurrently with Puts and reads; a canceled ctx ends the pass early
// (the partial report is still returned and counted). A store without a
// directory has no files to verify.
func (s *Store) ScrubPass(ctx context.Context) (scrub.Report, error) {
	if s.dir == "" {
		return scrub.Report{}, ctx.Err()
	}
	start := time.Now()
	th := scrub.NewThrottle(s.scrubRate())
	var rep scrub.Report
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

// scrubRate resolves the configured throttle: 0 means the package
// default, negative means unlimited.
func (s *Store) scrubRate() int64 {
	if s.cfg.Scrub.Throttle == 0 {
		return scrub.DefaultThrottle
	}
	return s.cfg.Scrub.Throttle
}

// scrubSegments verifies one shard's sealed segments. The active
// segment is skipped — it has a writer and a legitimate torn tail is
// possible mid-append; it becomes scannable once sealed. A segment
// retired by compaction between listing and read is silently skipped.
func (s *Store) scrubSegments(ctx context.Context, sh *shard, th *scrub.Throttle, rep *scrub.Report) {
	seqs := sh.segmentsOnDisk(s.fs)
	// Read the active sequence AFTER listing: sealed sequence numbers
	// are always below it, so a rotation racing the listing can only
	// reclassify a just-sealed segment as still-active (scanned next
	// cycle), never the reverse.
	active, _ := sh.seg.activeSeq()
	for _, seq := range seqs {
		if seq >= active || ctx.Err() != nil {
			continue
		}
		path := filepath.Join(sh.dir, segName(seq))
		fi, err := s.fs.Stat(path)
		if err != nil {
			continue // retired since the listing
		}
		if th.Take(ctx, fi.Size()) != nil {
			return
		}
		data, err := s.fs.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			s.segmentDamage(sh, path, rep, -1, fmt.Sprintf("read failed: %v", err))
			continue
		}
		rep.SegmentsScanned++
		rep.BytesScanned += int64(len(data))
		records := int64(0)
		d := scrub.WalkLog(data, func(off int64, payload []byte) error {
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
			s.segmentDamage(sh, path, rep, d.Offset, d.Reason)
		}
	}
}

// segmentDamage handles one damaged sealed segment: repair when
// allowed, quarantine + degrade otherwise.
func (s *Store) segmentDamage(sh *shard, path string, rep *scrub.Report, off int64, reason string) {
	f := scrub.Finding{Path: path, Offset: off, Reason: reason, Action: scrub.ActionDetected}
	if !s.cfg.Scrub.NoRepair {
		if err := s.repairShard(sh); err == nil {
			if _, serr := s.fs.Stat(path); serr != nil {
				// The repair's retire step removed the damaged file:
				// everything it held is re-secured in fresh snapshots.
				f.Action = scrub.ActionRepaired
				rep.Note(f)
				return
			}
		}
	}
	sh.compactMu.Lock()
	if _, err := s.fs.Stat(path); err == nil {
		if _, qerr := scrub.Quarantine(s.fs, path); qerr == nil {
			f.Action = scrub.ActionQuarantined
			sh.stats.quarantined.Add(1)
		}
	}
	rep.Degraded += int64(s.degradeUncovered(sh, fmt.Sprintf("segment %s quarantined: %s", filepath.Base(path), reason)))
	sh.compactMu.Unlock()
	rep.Note(f)
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
func (s *Store) scrubSnapshots(ctx context.Context, sh *shard, th *scrub.Throttle, rep *scrub.Report) {
	docsDir := filepath.Join(sh.dir, docsDirName)
	entries, err := s.fs.ReadDir(docsDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || strings.Contains(e.Name(), scrub.QuarantineSuffix) || ctx.Err() != nil {
			continue
		}
		id := unescapeID(e.Name())
		st := sh.lookup(id)
		if st == nil {
			continue // orphan directory; not ours to judge
		}
		sub := filepath.Join(docsDir, e.Name())
		reason, ok := s.verifySnapshot(ctx, st, sub, th, rep)
		if ok {
			continue
		}
		if reason == "" {
			return // canceled mid-verify, not damage
		}
		s.snapshotDamage(sh, id, st, sub, rep, reason)
	}
}

// verifySnapshot checks one document's on-disk snapshot under the
// document's read lock (which excludes a concurrent rewrite): the
// counter must match the resident snapshot point, every content file
// must decode as recovery decodes it — through the checksum manifest,
// when present, so recovery can keep trusting it — and byte-match the
// resident chain's XML, rendered from frames, the chain that
// reconstructs every version. Returns
// ok=true when intact; otherwise a damage reason ("" for a canceled
// pass).
func (s *Store) verifySnapshot(ctx context.Context, st *docState, sub string, th *scrub.Throttle, rep *scrub.Report) (string, bool) {
	st.mu.RLock()
	defer st.mu.RUnlock()
	if st.snapVersions == 0 {
		// No authoritative snapshot expected: nothing to verify. (A
		// half-written directory without a counter is replaced wholesale
		// by the next compaction.)
		return "", true
	}
	read := func(name string) ([]byte, string) {
		path := filepath.Join(sub, name)
		fi, err := s.fs.Stat(path)
		if err != nil {
			return nil, fmt.Sprintf("%s missing: %v", name, err)
		}
		if th.Take(ctx, fi.Size()) != nil {
			return nil, ""
		}
		b, err := s.fs.ReadFile(path)
		if err != nil {
			return nil, fmt.Sprintf("%s unreadable: %v", name, err)
		}
		rep.BytesScanned += int64(len(b))
		return b, ""
	}
	counterRaw, bad := read("versions")
	if counterRaw == nil {
		return bad, false
	}
	c, err := strconv.Atoi(strings.TrimSpace(string(counterRaw)))
	if err != nil || c < 1 {
		return fmt.Sprintf("bad version counter %q", counterRaw), false
	}
	if c != st.snapVersions {
		return fmt.Sprintf("version counter reads %d, resident snapshot point is %d", c, st.snapVersions), false
	}
	sums, err := readSums(s.fs, sub)
	if err != nil {
		return err.Error(), false
	}
	// Each part's dictionary is the resident chain before it; the first
	// bad part ends the check, so no later part is decoded.
	var tail chainTail
	check := func(name string, want []byte) (string, bool) {
		data, bad := read(name)
		if data == nil {
			return bad, false
		}
		part, err := decodeContent(sub, name, data, sums, tail.b)
		if err != nil {
			return err.Error(), false
		}
		if !bytes.Equal(part, want) {
			return fmt.Sprintf("%s diverges from the resident version chain", name), false
		}
		return "", true
	}
	prev, err := st.base.xml(baseXML)
	if err != nil {
		return fmt.Sprintf("resident version 1 does not render: %v", err), false
	}
	if bad, ok := check("v1.xml", prev); !ok {
		return bad, false
	}
	for v := 1; v < c; v++ {
		tail.push(prev)
		if prev, err = st.deltas[v-1].xml(deltaXML); err != nil {
			return fmt.Sprintf("resident delta %d does not render: %v", v, err), false
		}
		if bad, ok := check(deltaFile(v), prev); !ok {
			return bad, false
		}
	}
	rep.SnapshotsScanned++
	return "", true
}

// snapshotDamage handles one damaged snapshot: a full rewrite from the
// resident chain when repair is allowed, quarantine + degraded mode
// otherwise.
func (s *Store) snapshotDamage(sh *shard, id string, st *docState, sub string, rep *scrub.Report, reason string) {
	f := scrub.Finding{Path: sub, Offset: -1, Reason: reason, Action: scrub.ActionDetected}
	if !s.cfg.Scrub.NoRepair {
		sh.compactMu.Lock()
		err := s.snapshotDoc(sh, id, st, true)
		sh.compactMu.Unlock()
		if err == nil {
			f.Action = scrub.ActionRepaired
			rep.Note(f)
			return
		}
	}
	sh.compactMu.Lock()
	if _, err := s.fs.Stat(sub); err == nil {
		if _, qerr := scrub.Quarantine(s.fs, sub); qerr == nil {
			f.Action = scrub.ActionQuarantined
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
	rep.Note(f)
}

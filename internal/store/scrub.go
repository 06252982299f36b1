package store

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/scrub"
)

// ScrubDir runs one offline integrity pass over a per-document store
// directory (the legacy layout): every journal record is CRC-walked
// and decoded, every snapshot directory is cross-checked by actually
// reconstructing the version chain (base parsed, every delta parsed
// and applied), and the redundant latest.xml copy is compared against
// the reconstruction. The store must be closed — ScrubDir owns the
// directory for the duration (the `xystore scrub` subcommand is the
// intended caller).
//
// Damage classification mirrors the sharded engine's scrubber:
//
//   - latest.xml divergence is repaired in place from the
//     reconstructed chain when cfg.Repair is set (it is a derived
//     copy; the chain is authoritative), else quarantined alone.
//   - a corrupt snapshot directory is repaired by replaying the
//     document's journal — possible only while the journal still
//     carries the base record — and rewriting the snapshot through
//     the usual write → fsync → rename path; otherwise the directory
//     is quarantined and the document counts as degraded.
//   - a journal with mid-log damage is always quarantined, never
//     rewritten: versions past its snapshot exist nowhere else
//     offline, so the document counts as degraded. (The sharded
//     engine can do better because its resident chains make every
//     acknowledged byte redundant while the store is open.)
//
// Quarantined files are renamed aside with scrub.QuarantineSuffix and
// never deleted. A torn record at a journal's tail is a crash
// artifact, not damage — recovery truncates it — and is left alone.
func ScrubDir(ctx context.Context, fsys faultfs.FS, dir string, cfg scrub.Config) (scrub.Report, error) {
	if fsys == nil {
		fsys = faultfs.OS{}
	}
	start := time.Now()
	rate := cfg.Throttle
	if rate == 0 {
		rate = scrub.DefaultThrottle
	}
	th := scrub.NewThrottle(rate)
	var rep scrub.Report

	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return rep, fmt.Errorf("store: scrub %s: %w", dir, err)
	}
	// Journals first: snapshot repair needs to know which journals
	// survived verification.
	journalOK := make(map[string]string) // id → path of an intact journal
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, journalPrefix) || !strings.HasSuffix(name, journalSuffix) {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		id := unescapeID(strings.TrimSuffix(strings.TrimPrefix(name, journalPrefix), journalSuffix))
		path := filepath.Join(dir, name)
		fi, err := fsys.Stat(path)
		if err != nil {
			continue
		}
		if th.Take(ctx, fi.Size()) != nil {
			break
		}
		data, err := fsys.ReadFile(path)
		if err != nil {
			quarantineJournal(fsys, path, &rep, -1, fmt.Sprintf("read failed: %v", err))
			continue
		}
		rep.SegmentsScanned++
		rep.BytesScanned += int64(len(data))
		records := int64(0)
		d := scrub.WalkLog(data, func(off int64, payload []byte) error {
			if _, _, _, derr := decodePayload(payload); derr != nil {
				return derr
			}
			records++
			return nil
		})
		rep.RecordsVerified += records
		switch {
		case d == nil:
			journalOK[id] = path
		case d.Torn:
			// A torn tail is the one legitimate way a journal ends
			// early (crash mid-append; the version was never
			// acknowledged). The intact prefix is still usable.
			journalOK[id] = path
		default:
			quarantineJournal(fsys, path, &rep, d.Offset, d.Reason)
		}
	}

	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() || strings.Contains(name, scrub.QuarantineSuffix) {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		id := unescapeID(name)
		sub := filepath.Join(dir, name)
		if th.Take(ctx, dirSize(fsys, sub)) != nil {
			break
		}
		h, _, err := loadSnapshot(fsys, sub, id)
		if err != nil {
			scrubBadSnapshot(fsys, dir, sub, id, journalOK[id], cfg.Repair, &rep, err)
			continue
		}
		if h == nil {
			continue // no counter: half-written snapshot, replaced by the next checkpoint
		}
		rep.SnapshotsScanned++
		scrubLatestCopy(fsys, sub, h, cfg.Repair, &rep)
	}
	rep.Duration = time.Since(start)
	return rep, ctx.Err()
}

// quarantineJournal sets a damaged journal aside and counts its
// document as degraded: the journal is the only offline copy of
// versions past the snapshot, so part of the history is unprovable.
func quarantineJournal(fsys faultfs.FS, path string, rep *scrub.Report, off int64, reason string) {
	f := scrub.Finding{Path: path, Offset: off, Reason: reason, Action: scrub.ActionDetected}
	if _, err := scrub.Quarantine(fsys, path); err == nil {
		f.Action = scrub.ActionQuarantined
	}
	rep.Degraded++
	rep.Note(f)
}

// scrubBadSnapshot handles a snapshot directory that failed chain
// reconstruction: rebuilt from the journal when possible (a true
// repair — the journal's base record plus deltas reproduce the whole
// chain), quarantined otherwise.
func scrubBadSnapshot(fsys faultfs.FS, dir, sub, id, journal string, repair bool, rep *scrub.Report, cause error) {
	f := scrub.Finding{Path: sub, Offset: -1, Reason: cause.Error(), Action: scrub.ActionDetected}
	if repair && journal != "" {
		if h := replayForRepair(fsys, journal, id); h != nil {
			if _, qerr := scrub.Quarantine(fsys, sub); qerr == nil {
				if err := saveHistory(fsys, dir, id, h); err == nil {
					f.Action = scrub.ActionRepaired
					rep.Note(f)
					return
				}
			}
		}
	}
	if _, err := fsys.Stat(sub); err == nil {
		if _, qerr := scrub.Quarantine(fsys, sub); qerr == nil {
			f.Action = scrub.ActionQuarantined
		}
	}
	rep.Degraded++
	rep.Note(f)
}

// replayForRepair rebuilds one document's history from its journal
// alone, into a throwaway store. Returns nil when the journal cannot
// reconstruct the document from scratch (no base record — the
// snapshot it depended on is the thing that just failed).
func replayForRepair(fsys faultfs.FS, journal, id string) *history {
	tmp := New(diff.Options{})
	if err := tmp.replayJournal(fsys, journal, id); err != nil {
		return nil
	}
	return tmp.docs[id]
}

// scrubLatestCopy cross-checks the redundant latest.xml against the
// reconstructed chain. The chain is authoritative (nothing in the
// engine reads latest.xml back), so divergence is repaired by
// rewriting the copy when allowed; the chain files stay untouched and
// the document is not degraded either way.
func scrubLatestCopy(fsys faultfs.FS, sub string, h *history, repair bool, rep *scrub.Report) {
	path := filepath.Join(sub, "latest.xml")
	raw, err := fsys.ReadFile(path)
	reason := ""
	if err != nil {
		reason = fmt.Sprintf("latest.xml unreadable: %v", err)
	} else {
		rep.BytesScanned += int64(len(raw))
		doc, perr := dom.ParseBytes(raw, snapshotLoadOptions())
		if perr != nil {
			reason = fmt.Sprintf("latest.xml unparseable: %v", perr)
		} else if doc.String() != h.latest.String() {
			reason = "latest.xml diverges from the reconstructed chain"
		}
	}
	if reason == "" {
		return
	}
	f := scrub.Finding{Path: path, Offset: -1, Reason: reason, Action: scrub.ActionDetected}
	if repair {
		if err := writeAtomic(fsys, path, h.latest.WriteTo); err == nil {
			f.Action = scrub.ActionRepaired
			rep.Note(f)
			return
		}
	}
	if _, err := fsys.Stat(path); err == nil {
		if _, qerr := scrub.Quarantine(fsys, path); qerr == nil {
			f.Action = scrub.ActionQuarantined
		}
	}
	rep.Note(f)
}

// dirSize sums the directory's immediate file sizes (throttle
// accounting; exactness does not matter).
func dirSize(fsys faultfs.FS, dir string) int64 {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if fi, err := fsys.Stat(filepath.Join(dir, e.Name())); err == nil {
			n += fi.Size()
		}
	}
	return n
}

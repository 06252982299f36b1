package vstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/xid"
)

// Migration converts a directory in the old per-document layout into
// the sharded segment layout, without re-diffing anything: each
// document's base version and delta chain are carried over verbatim,
// so every reconstruction stays byte-identical. The old layout is
//
//	<escaped id>/v1.xml          snapshot: base version
//	<escaped id>/delta-0001.xml  ... one file per delta
//	<escaped id>/versions        snapshot version counter, renamed last
//	<escaped id>/latest.xml      derived copy, ignored
//	journal-<escaped id>.log     versions past the snapshot
//
// and its journal records are framed like segment records (length,
// CRC32-C, payload) with a payload of kind byte, uvarint version and
// body — no document id, the file name carries it. This file is the
// only reader of that layout, and it only reads: a torn journal tail is
// skipped, never truncated.
//
// The conversion is built beside the original and swapped in with two
// renames, keeping the original as a backup:
//
//	DIR.migrating    the new layout, built from scratch (removed and
//	                 rebuilt if a previous attempt died)
//	DIR.pre-migrate  the untouched original, renamed here on success
//
// A crash before the first rename leaves DIR untouched; between the
// renames, DIR.migrating is complete and DIR is the backup — rerunning
// Migrate reports what to do.

const (
	legacyJournalPrefix = "journal-"
	legacyJournalSuffix = ".log"
)

// Migrate converts the per-document store at dir into the sharded
// layout in place: every chain is read and verified, the new store is
// built under dir+".migrating" and swapped in, with the original kept at
// dir+".pre-migrate" as the backup/abort path (remove it once
// satisfied, or rename it back over dir to abort). Everything is read
// and written through cfg.FS. A record or snapshot file that does not
// parse or apply refuses the migration with an error matching
// *corruptError that names the file and offset. Returns the document
// count carried over.
func Migrate(dir string, opts diff.Options, cfg Config) (int, error) {
	fsys := cfg.withDefaults().FS
	backup := dir + ".pre-migrate"
	tmp := dir + ".migrating"
	if _, err := fsys.Stat(backup); err == nil {
		return 0, fmt.Errorf("vstore: migrate %s: backup %s already exists — a previous migration finished (remove the backup) or needs aborting (rename it back over %s)", dir, backup, dir)
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: %w", dir, err)
	}
	if _, err := fsys.Stat(manifestPath(dir)); err == nil {
		return 0, fmt.Errorf("vstore: migrate %s: already in sharded layout", dir)
	}
	if !oldLayout(fsys, dir, entries) {
		return 0, fmt.Errorf("vstore: migrate %s: not a per-document store directory", dir)
	}
	chains, err := readLegacy(fsys, dir, entries)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: read old layout: %w", dir, err)
	}
	ids := make([]string, 0, len(chains))
	for id := range chains {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := chains[id].verify(); err != nil {
			return 0, fmt.Errorf("vstore: migrate %s: read old layout: %w", dir, err)
		}
	}
	if err := removeAll(fsys, tmp); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: clear stale %s: %w", dir, tmp, err)
	}
	next, err := Open(tmp, opts, cfg)
	if err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: create new layout: %w", dir, err)
	}
	for _, id := range ids {
		c := chains[id]
		if err := next.importChain(id, c.parts[0], c.parts[1:]); err != nil {
			_ = next.Close() // the import error is the one worth reporting
			return 0, err
		}
	}
	if err := next.Close(); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: close new layout: %w", dir, err)
	}
	// The swap: original aside first, then the new layout into place.
	// A crash in between leaves both directories present and intact.
	if err := fsys.Rename(dir, backup); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: move original aside: %w", dir, err)
	}
	if err := fsys.Rename(tmp, dir); err != nil {
		return 0, fmt.Errorf("vstore: migrate %s: install new layout (original preserved at %s): %w", dir, backup, err)
	}
	return len(ids), nil
}

// oldLayout recognizes a per-document store directory: journal-*.log
// files at the root, or document subdirectories carrying a "versions"
// counter.
func oldLayout(fsys faultfs.FS, dir string, entries []os.DirEntry) bool {
	for _, e := range entries {
		if _, ok := legacyJournalID(e); ok {
			return true
		}
		if e.IsDir() {
			if _, err := fsys.Stat(filepath.Join(dir, e.Name(), "versions")); err == nil {
				return true
			}
		}
	}
	return false
}

// legacyJournalID is the document a journal-<escaped id>.log entry
// belongs to; ok is false for any other entry.
func legacyJournalID(e os.DirEntry) (id string, ok bool) {
	name := e.Name()
	if e.IsDir() || !strings.HasPrefix(name, legacyJournalPrefix) || !strings.HasSuffix(name, legacyJournalSuffix) {
		return "", false
	}
	return unescapeID(strings.TrimSuffix(strings.TrimPrefix(name, legacyJournalPrefix), legacyJournalSuffix)), true
}

// legacyChain is one document read from the old layout: parts[0] is
// the serialized version 1 and parts[n] the delta from version n to
// n+1, each with the file and offset it was read from.
type legacyChain struct {
	parts [][]byte
	from  []legacyOrigin
}

// legacyOrigin locates one part: a journal record's offset, or -1 for
// a snapshot file.
type legacyOrigin struct {
	file string
	off  int64
}

func (c *legacyChain) add(part []byte, file string, off int64) {
	c.parts = append(c.parts, part)
	c.from = append(c.from, legacyOrigin{file, off})
}

// readLegacy reads every document of the old layout under dir: every
// snapshot first, then every journal on top. The two passes matter —
// ReadDir is lexicographic, and a document whose id sorts after
// "journal-" lists its journal before its snapshot directory, which a
// post-checkpoint journal (deltas only) needs loaded first.
func readLegacy(fsys faultfs.FS, dir string, entries []os.DirEntry) (map[string]*legacyChain, error) {
	chains := make(map[string]*legacyChain)
	for _, e := range entries {
		// Quarantined snapshot directories are evidence, not documents.
		if !e.IsDir() || strings.Contains(e.Name(), quarantineSuffix) {
			continue
		}
		sub := filepath.Join(dir, e.Name())
		st, err := loadSnapshot(fsys, sub)
		if err != nil {
			return nil, err
		}
		if st == nil {
			continue // no counter: a checkpoint that never finished
		}
		// A loaded part is the XML it was read as.
		c := &legacyChain{}
		c.add(st.base.form.Load().b, filepath.Join(sub, "v1.xml"), -1)
		for v, d := range st.deltas {
			c.add(d.form.Load().b, filepath.Join(sub, deltaFile(v+1)), -1)
		}
		chains[unescapeID(e.Name())] = c
	}
	for _, e := range entries {
		id, ok := legacyJournalID(e)
		if !ok {
			continue
		}
		if err := readLegacyJournal(fsys, filepath.Join(dir, e.Name()), id, chains); err != nil {
			return nil, err
		}
	}
	return chains, nil
}

// readLegacyJournal folds one journal's records into id's chain,
// skipping records a snapshot already covers and a torn tail.
func readLegacyJournal(fsys faultfs.FS, path, id string, chains map[string]*legacyChain) error {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return corruptf(path, -1, err, "unreadable journal")
	}
	var refused error
	damage := walkLog(data, func(off int64, payload []byte) error {
		refused = foldLegacyRecord(chains, id, path, off, payload)
		return refused
	})
	switch {
	case refused != nil:
		return refused
	case damage != nil && !damage.torn:
		return corruptf(path, damage.off, nil, "%s", damage.reason)
	}
	return nil
}

// foldLegacyRecord applies one verified journal record to id's chain.
func foldLegacyRecord(chains map[string]*legacyChain, id, path string, off int64, payload []byte) error {
	if len(payload) < 2 {
		return corruptf(path, off, nil, "payload too short (%d bytes)", len(payload))
	}
	kind := payload[0]
	v, n := binary.Uvarint(payload[1:])
	if n <= 0 || v == 0 || v > 1<<31 {
		return corruptf(path, off, nil, "bad version varint")
	}
	version, body := int(v), payload[1+n:]
	c := chains[id]
	switch kind {
	case recordBase:
		if version != 1 {
			return corruptf(path, off, nil, "base record claims version %d", version)
		}
		if c == nil {
			c = &legacyChain{}
			c.add(body, path, off)
			chains[id] = c
		}
	case recordDelta:
		if c == nil {
			return corruptf(path, off, nil, "delta record for version %d but no base version", version)
		}
		switch have := len(c.parts); {
		case version == have+1:
			c.add(body, path, off)
		case version > have+1:
			return corruptf(path, off, nil, "record jumps to version %d after %d", version, have)
		}
	default:
		return corruptf(path, off, nil, "unknown record kind %d", kind)
	}
	return nil
}

// verify replays the chain once, forward from version 1, so a part
// that does not parse or apply is refused naming where it was read.
func (c *legacyChain) verify() error {
	doc, err := dom.ParseBytes(c.parts[0], snapshotLoadOptions())
	if err != nil {
		return corruptf(c.from[0].file, c.from[0].off, err, "unparseable base version")
	}
	xid.Assign(doc)
	r := delta.NewReplay(doc)
	for v := 1; v < len(c.parts); v++ {
		at := c.from[v]
		d, err := delta.ParseBytes(c.parts[v])
		if err != nil {
			return corruptf(at.file, at.off, err, "unparseable delta %d", v)
		}
		if err := r.Forward(d); err != nil {
			return corruptf(at.file, at.off, err, "delta %d does not apply to version %d", v, v)
		}
	}
	return nil
}

// importChain installs a document wholesale: serialized base version
// plus delta chain, written straight to the document's snapshot (no
// segment records, no re-diffing), so a migrated chain carries over
// byte-identically — the snapshot files are compressed as compaction
// writes them, and decode to the parts read. The store keeps the
// slices, as XML parts.
func (s *Store) importChain(id string, base []byte, deltas [][]byte) error {
	sh := s.shardFor(id)
	st := sh.state(id)
	st.mu.Lock()
	st.base = st.keep(xmlPart(base))
	for _, d := range deltas {
		st.deltas = append(st.deltas, st.keep(xmlPart(d)))
	}
	st.versions = 1 + len(deltas)
	st.mu.Unlock()
	sh.compactMu.Lock()
	defer sh.compactMu.Unlock()
	if err := s.snapshotDoc(sh, id, st, false); err != nil {
		return fmt.Errorf("vstore: import %s: %w", id, err)
	}
	return nil
}

func manifestPath(dir string) string { return dir + string(os.PathSeparator) + manifestName }

// removeAll removes path recursively through fsys (faultfs has no
// RemoveAll; migration only ever removes its own stale .migrating
// build).
func removeAll(fsys faultfs.FS, path string) error {
	entries, err := fsys.ReadDir(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		sub := path + string(os.PathSeparator) + e.Name()
		if e.IsDir() {
			if err := removeAll(fsys, sub); err != nil {
				return err
			}
		} else if err := fsys.Remove(sub); err != nil {
			return err
		}
	}
	return fsys.Remove(path)
}

package vstore

import (
	"sync/atomic"

	"xydiff/internal/store"
)

// engineCounters are the store-wide lock-free counters.
type engineCounters struct {
	cacheHits, cacheMisses atomic.Int64
	deltasDecoded          atomic.Int64
	history                historyBytes
	checkpoints            atomic.Int64
	compactions            atomic.Int64
	compactNanos           atomic.Int64

	// Scrub cycle accounting, cumulative across background and manual
	// passes.
	scrubCycles      atomic.Int64
	scrubBytes       atomic.Int64
	scrubRecords     atomic.Int64
	scrubFound       atomic.Int64
	scrubRepaired    atomic.Int64
	scrubQuarantined atomic.Int64
	scrubLastUnix    atomic.Int64
	scrubLastNanos   atomic.Int64
}

// shardCounters are one shard's lock-free durability counters.
type shardCounters struct {
	appends       atomic.Int64 // records written
	appendedBytes atomic.Int64 // record bytes, headers included
	syncs         atomic.Int64 // fsyncs completed
	batches       atomic.Int64 // group commits performed
	batchRecords  atomic.Int64 // records across all group commits
	maxBatch      atomic.Int64 // largest batch committed so far
	rejected      atomic.Int64 // Puts shed with ErrBusy
	quarantined   atomic.Int64 // files the scrubber (or recovery) set aside
	degraded      atomic.Int64 // documents currently serving degraded
	// Snapshot content files per encoding, their bytes on disk, and the
	// bytes they all decode to.
	snapFiles, snapStored [numEncodings]atomic.Int64
	snapRaw               atomic.Int64
}

// addSnapshot moves the shard's snapshot totals by b minus old, one Add
// per counter, so a concurrent reader never sees a total drop by a
// snapshot that is being replaced.
func (c *shardCounters) addSnapshot(b, old snapBytes) {
	for enc := range numEncodings {
		c.snapFiles[enc].Add(b.files[enc] - old.files[enc])
		c.snapStored[enc].Add(b.stored[enc] - old.stored[enc])
	}
	c.snapRaw.Add(b.raw - old.raw)
}

// setSnapshotBytes records what st's snapshot content files hold,
// moving the shard's totals by the difference; the caller holds st.mu
// (write).
func (sh *shard) setSnapshotBytes(st *docState, b snapBytes) {
	sh.stats.addSnapshot(b, st.snap)
	st.snap = b
}

// DurabilityStats aggregates every shard's counters: the journal
// activity the daemon exports as xydiffd_journal_* metrics.
func (s *Store) DurabilityStats() store.DurabilityStats {
	var out store.DurabilityStats
	for _, sh := range s.shards {
		out.Appends += sh.stats.appends.Load()
		out.AppendedBytes += sh.stats.appendedBytes.Load()
		out.Syncs += sh.stats.syncs.Load()
	}
	out.Checkpoints = s.stats.checkpoints.Load()
	return out
}

// RecoveryStats returns what the store reconstructed when it opened
// (all zero for a freshly created directory).
func (s *Store) RecoveryStats() store.RecoveryStats { return s.recovery }

// ShardStats is one shard's slice of StorageStats.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	// Docs is how many documents hash into the shard.
	Docs int
	// Segments is how many segment files are on disk (sealed + active).
	Segments int
	// Appends, appendedBytes and Syncs mirror DurabilityStats for this
	// shard alone.
	Appends       int64
	appendedBytes int64
	Syncs         int64
	// batches is how many group commits the shard performed;
	// BatchRecords how many records they carried in total; maxBatch the
	// largest single batch.
	batches      int64
	BatchRecords int64
	maxBatch     int64
	// Rejected is how many Puts were shed with ErrBusy.
	Rejected int64
	// SealedSegments is how many on-disk segments await compaction; a
	// steadily growing count with an old LastCompactUnix means the
	// compactor is stuck.
	SealedSegments int
	// LastCompactUnix is when the shard last completed a compaction
	// pass (unix seconds; 0 = none this run).
	LastCompactUnix int64
	// Quarantined counts corrupt files the scrubber set aside for this
	// shard; DegradedDocs how many of its documents serve degraded.
	Quarantined  int64
	DegradedDocs int64
}

// ScrubStats is the integrity scrubber's cumulative accounting,
// surfaced in /healthz and as xydiffd_scrub_* metrics.
type ScrubStats struct {
	// Cycles counts completed scrub passes (background and manual).
	Cycles int64
	// BytesScanned and RecordsVerified are cumulative verification
	// volume.
	BytesScanned    int64
	RecordsVerified int64
	// Found/Repaired/Quarantined count corruptions by outcome.
	Found       int64
	Repaired    int64
	Quarantined int64
	// LastUnix is when the last pass finished (unix seconds; 0 = no
	// pass yet); LastSeconds its duration.
	LastUnix    int64
	LastSeconds float64
}

// StorageStats is the engine-level view the daemon surfaces in
// /healthz and /metrics: group-commit effectiveness, version-cache hit
// ratio and compaction activity, overall and per shard.
type StorageStats struct {
	// Shards is the shard count fixed in the manifest.
	Shards int
	// Documents is the total stored document count.
	Documents int
	// Segments is the total on-disk segment file count.
	Segments int
	// FsyncTotal is how many segment fsyncs group commit performed.
	FsyncTotal int64
	// batches and BatchRecords describe group-commit effectiveness:
	// BatchRecords/batches is the mean records per fsync.
	batches      int64
	batchRecords int64
	// MaxBatch is the largest batch any shard committed.
	MaxBatch int64
	// Rejected is how many Puts were shed with ErrBusy.
	Rejected int64
	// CacheHits/CacheMisses count reads served from / missing the
	// version LRU of trees; CacheLen and CacheCap are its current and
	// maximum residency.
	CacheHits   int64
	CacheMisses int64
	CacheLen    int
	CacheCap    int
	// KeyframeRestores counts misses that restored the latest version
	// from its keyframe; KeyframeFallbacks keyframes that did not
	// restore, so the miss replayed the chain; KeyframeBytes is what
	// the keyframes resident now hold: tree shape, names and values.
	KeyframeRestores  int64
	KeyframeFallbacks int64
	KeyframeBytes     int64
	// HistoryXMLBytes and HistoryFrameBytes are what the documents'
	// resident history holds: version 1 and the stored deltas, as XML
	// until a read walk first decodes them, then as frames. A store just
	// reopened holds all of it as XML.
	HistoryXMLBytes   int64
	HistoryFrameBytes int64
	// DeltasDecoded counts stored deltas decoded, by read walks (Puts'
	// included) and by reads that return stored deltas. A walk counts
	// the deltas it stepped through.
	DeltasDecoded int64
	// Compactions counts completed compaction passes (checkpoints
	// included); CompactionSeconds is their cumulative duration.
	Compactions       int64
	CompactionSeconds float64
	// SealedSegments is how many on-disk segments await compaction
	// across all shards.
	SealedSegments int
	// DegradedDocs is how many documents currently serve degraded;
	// Quarantined how many corrupt files are set aside on disk.
	DegradedDocs int64
	Quarantined  int64
	// Format is the manifest's format marker ("" without a directory).
	Format string
	// SnapshotStoredBytes is the size on disk of every snapshot content
	// file (v1.xml, delta-NNNN.xml), compressed or raw;
	// SnapshotRawBytes what they decode to. SnapshotEncodings splits the
	// files and their bytes on disk by encoding: raw, gzip and
	// dictionary, in that order.
	SnapshotStoredBytes int64
	SnapshotRawBytes    int64
	SnapshotEncodings   []SnapshotEncoding
	// Scrub is the integrity scrubber's cumulative accounting.
	Scrub ScrubStats
	// PerShard has one entry per shard, in shard order.
	PerShard []ShardStats
}

// SnapshotEncoding counts the snapshot content files of one encoding.
type SnapshotEncoding struct {
	// Name is "raw" (XML as is), "gzip" (one gzip member) or
	// "dictionary" (one zlib stream whose preset dictionary is the
	// chain before the part).
	Name string
	// Files is how many content files use it; Bytes their size on disk.
	Files, Bytes int64
}

// MeanBatch returns the mean records per group commit (0 when none
// committed yet).
func (st StorageStats) MeanBatch() float64 {
	if st.batches == 0 {
		return 0
	}
	return float64(st.batchRecords) / float64(st.batches)
}

// CacheHitRatio returns the version-cache hit ratio in [0,1] (0 when
// the cache is untouched).
func (st StorageStats) CacheHitRatio() float64 {
	total := st.CacheHits + st.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(st.CacheHits) / float64(total)
}

// StorageStats snapshots the engine counters. Segment counts come from
// a directory listing, so the call does a little I/O per shard.
func (s *Store) StorageStats() StorageStats {
	s.formatMu.Lock()
	format := s.format
	s.formatMu.Unlock()
	out := StorageStats{
		Shards:            len(s.shards),
		Format:            format,
		CacheHits:         s.stats.cacheHits.Load(),
		CacheMisses:       s.stats.cacheMisses.Load(),
		CacheLen:          s.cache.len(),
		CacheCap:          s.cfg.CacheSize,
		KeyframeRestores:  s.cache.restores.Load(),
		KeyframeFallbacks: s.cache.fallbacks.Load(),
		KeyframeBytes:     s.cache.keyframeBytes(),
		HistoryXMLBytes:   s.stats.history.xml.Load(),
		HistoryFrameBytes: s.stats.history.frame.Load(),
		DeltasDecoded:     s.stats.deltasDecoded.Load(),
		Compactions:       s.stats.compactions.Load(),
		CompactionSeconds: float64(s.stats.compactNanos.Load()) / 1e9,
		Scrub: ScrubStats{
			Cycles:          s.stats.scrubCycles.Load(),
			BytesScanned:    s.stats.scrubBytes.Load(),
			RecordsVerified: s.stats.scrubRecords.Load(),
			Found:           s.stats.scrubFound.Load(),
			Repaired:        s.stats.scrubRepaired.Load(),
			Quarantined:     s.stats.scrubQuarantined.Load(),
			LastUnix:        s.stats.scrubLastUnix.Load(),
			LastSeconds:     float64(s.stats.scrubLastNanos.Load()) / 1e9,
		},
	}
	for _, name := range encodingNames {
		out.SnapshotEncodings = append(out.SnapshotEncodings, SnapshotEncoding{Name: name})
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		docs := len(sh.docs)
		sh.mu.RUnlock()
		ss := ShardStats{
			Shard:           sh.idx,
			Docs:            docs,
			Segments:        len(sh.segmentsOnDisk(s.fs)),
			Appends:         sh.stats.appends.Load(),
			appendedBytes:   sh.stats.appendedBytes.Load(),
			Syncs:           sh.stats.syncs.Load(),
			batches:         sh.stats.batches.Load(),
			BatchRecords:    sh.stats.batchRecords.Load(),
			maxBatch:        sh.stats.maxBatch.Load(),
			Rejected:        sh.stats.rejected.Load(),
			SealedSegments:  len(s.sealedSegments(sh)),
			LastCompactUnix: sh.lastCompact.Load(),
			Quarantined:     sh.stats.quarantined.Load(),
			DegradedDocs:    sh.stats.degraded.Load(),
		}
		out.Documents += ss.Docs
		out.Segments += ss.Segments
		out.FsyncTotal += ss.Syncs
		out.batches += ss.batches
		out.batchRecords += ss.BatchRecords
		out.Rejected += ss.Rejected
		out.SealedSegments += ss.SealedSegments
		out.DegradedDocs += ss.DegradedDocs
		out.Quarantined += ss.Quarantined
		for enc := range numEncodings {
			e, stored := &out.SnapshotEncodings[enc], sh.stats.snapStored[enc].Load()
			e.Files += sh.stats.snapFiles[enc].Load()
			e.Bytes += stored
			out.SnapshotStoredBytes += stored
		}
		out.SnapshotRawBytes += sh.stats.snapRaw.Load()
		if ss.maxBatch > out.MaxBatch {
			out.MaxBatch = ss.maxBatch
		}
		out.PerShard = append(out.PerShard, ss)
	}
	return out
}

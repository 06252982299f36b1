package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/vstore"
)

// TestStorageCacheMetrics: every xydiffd_store_*, xydiffd_scrub_* and
// xydiffd_crawl_* family reaches /metrics with the values StorageStats
// and the crawler's Snapshot report: HELP, then TYPE, then the sample
// (the one sample of an unlabelled family), and /healthz carries the
// same value where it has one. The fixture's one-slot cache makes
// every PUT after the first restore its old version from a keyframe.
func TestStorageCacheMetrics(t *testing.T) {
	s, ts := metricsFixture(t)
	ss, cs := s.store.StorageStats(), s.crawler.Metrics().Snapshot()
	if ss.KeyframeRestores < 2 || ss.KeyframeBytes == 0 || ss.DeltasDecoded == 0 || ss.Scrub.Cycles == 0 || ss.HistoryFrameBytes == 0 {
		t.Fatalf("storage stats %+v: want keyframe restores, keyframe bytes, decoded deltas, a scrub pass and history frames", ss)
	}
	if len(ss.PerShard) != 2 {
		t.Fatalf("%d shards, want the fixture's 2", len(ss.PerShard))
	}

	metrics := metricsText(t, ts)
	_, _, body := doReq(t, "GET", ts.URL+"/healthz", "")
	var health any
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatal(err)
	}
	type row struct {
		name, typ, key string // key: the value's dotted path in /healthz ("" = none)
		value          any    // int, int64 or float64
	}
	rows := []row{
		{"xydiffd_store_documents", "gauge", "storage.documents", ss.Documents},
		{"xydiffd_store_shards", "gauge", "storage.shards", ss.Shards},
		{"xydiffd_store_fsync_total", "counter", "storage.fsyncTotal", ss.FsyncTotal},
		{"xydiffd_store_fsync_batch_size", "gauge", "storage.meanFsyncBatch", ss.MeanBatch()},
		{"xydiffd_store_fsync_batch_max", "gauge", "storage.maxFsyncBatch", ss.MaxBatch},
		{"xydiffd_store_busy_rejected_total", "counter", "storage.rejected", ss.Rejected},
		{"xydiffd_store_compaction_seconds", "counter", "storage.compactionSeconds", ss.CompactionSeconds},
		{"xydiffd_store_compactions_total", "counter", "storage.compactions", ss.Compactions},
		{"xydiffd_store_cache_hit_ratio", "gauge", "storage.cacheHitRatio", ss.CacheHitRatio()},
		{"xydiffd_store_cache_hits_total", "counter", "storage.cacheHits", ss.CacheHits},
		{"xydiffd_store_cache_misses_total", "counter", "storage.cacheMisses", ss.CacheMisses},
		{"xydiffd_store_cache_resident", "gauge", "storage.cacheLen", ss.CacheLen},
		{"xydiffd_store_keyframe_restores_total", "counter", "storage.keyframeRestores", ss.KeyframeRestores},
		{"xydiffd_store_keyframe_fallbacks_total", "counter", "storage.keyframeFallbacks", ss.KeyframeFallbacks},
		{"xydiffd_store_keyframe_bytes", "gauge", "storage.keyframeBytes", ss.KeyframeBytes},
		{"xydiffd_store_deltas_decoded_total", "counter", "storage.deltasDecoded", ss.DeltasDecoded},
		{"xydiffd_store_degraded_docs", "gauge", "storage.degradedDocs", ss.DegradedDocs},
		{`xydiffd_store_history_bytes{form="xml"}`, "gauge", "storage.historyXMLBytes", ss.HistoryXMLBytes},
		{`xydiffd_store_history_bytes{form="frame"}`, "gauge", "storage.historyFrameBytes", ss.HistoryFrameBytes},
		{`xydiffd_store_snapshot_bytes{form="stored"}`, "gauge", "storage.snapshotBytes", ss.SnapshotStoredBytes},
		{`xydiffd_store_snapshot_bytes{form="raw"}`, "gauge", "storage.snapshotRawBytes", ss.SnapshotRawBytes},
		{"xydiffd_scrub_cycles_total", "counter", "storage.scrub.cycles", ss.Scrub.Cycles},
		{"xydiffd_scrub_scanned_bytes_total", "counter", "storage.scrub.bytesScanned", ss.Scrub.BytesScanned},
		{"xydiffd_scrub_records_verified_total", "counter", "storage.scrub.recordsVerified", ss.Scrub.RecordsVerified},
		{"xydiffd_scrub_corruptions_found_total", "counter", "storage.scrub.found", ss.Scrub.Found},
		{"xydiffd_scrub_repaired_total", "counter", "storage.scrub.repaired", ss.Scrub.Repaired},
		{"xydiffd_scrub_quarantined_total", "counter", "storage.scrub.quarantined", ss.Scrub.Quarantined},
		{"xydiffd_scrub_last_cycle_seconds", "gauge", "storage.scrub.lastCycleSeconds", ss.Scrub.LastSeconds},
		{"xydiffd_scrub_last_cycle_unixtime", "gauge", "storage.scrub.lastCycleUnix", ss.Scrub.LastUnix},
		{"xydiffd_crawl_fetches_total", "counter", "crawl.fetches", cs.Fetches},
		{"xydiffd_crawl_not_modified_total", "counter", "crawl.notModified", cs.NotModified},
		{"xydiffd_crawl_ingests_total", "counter", "", cs.Ingests},
		{"xydiffd_crawl_unchanged_total", "counter", "", cs.Unchanged},
		{"xydiffd_crawl_retries_total", "counter", "", cs.Retries},
		{"xydiffd_crawl_failures_total", "counter", "", cs.Failures},
		{"xydiffd_crawl_circuit_opens_total", "counter", "", cs.CircuitOpens},
		{"xydiffd_crawl_fetched_bytes_total", "counter", "", cs.FetchedBytes},
		{"xydiffd_crawl_open_circuits", "gauge", "crawl.openCircuits", cs.OpenCircuits},
		{"xydiffd_crawl_queue_depth", "gauge", "crawl.queueDepth", cs.QueueDepth},
		{"xydiffd_crawl_sources", "gauge", "crawl.sources", cs.Sources},
	}
	for i, sh := range ss.PerShard {
		label, at := fmt.Sprintf(`{shard="%d"}`, sh.Shard), fmt.Sprintf("storage.perShard.%d.", i)
		rows = append(rows,
			row{"xydiffd_store_segments" + label, "gauge", "", sh.Segments},
			row{"xydiffd_store_shard_fsync_total" + label, "counter", "", sh.Syncs},
			row{"xydiffd_store_shard_docs" + label, "gauge", "", sh.Docs},
			row{"xydiffd_store_shard_batch_records_total" + label, "counter", "", sh.BatchRecords},
			row{"xydiffd_store_shard_rejected_total" + label, "counter", "", sh.Rejected},
			row{"xydiffd_store_shard_sealed_segments" + label, "gauge", at + "sealedSegments", sh.SealedSegments},
			row{"xydiffd_store_shard_last_compact_unixtime" + label, "gauge", at + "lastCompactUnix", sh.LastCompactUnix},
			row{"xydiffd_store_shard_quarantined_total" + label, "counter", at + "quarantined", sh.Quarantined},
			row{"xydiffd_store_shard_degraded_docs" + label, "gauge", at + "degradedDocs", sh.DegradedDocs},
		)
	}
	for _, m := range rows {
		name, _, labelled := strings.Cut(m.name, "{")
		family := familyLines(metrics, name)
		want := []string{
			"# TYPE " + name + " " + m.typ,
			fmt.Sprintf("%s %v", m.name, m.value),
		}
		if len(family) < 3 || family[1] != want[0] || !slices.Contains(family[2:], want[1]) || !labelled && len(family) != 3 {
			t.Errorf("/metrics has %q for %s, want its HELP line, %q, and %q among its samples", family, name, want[0], want[1])
		}
		if m.key == "" {
			continue
		}
		if got, ok := jsonAt(health, m.key).(float64); !ok || got != toFloat(m.value) {
			t.Errorf("/healthz %s = %v, want %v", m.key, jsonAt(health, m.key), m.value)
		}
	}
}

// familyLines returns the lines of name's family in a /metrics body:
// its HELP line and every line after it up to the next family's.
func familyLines(metrics, name string) []string {
	help := "# HELP " + name + " "
	_, rest, ok := strings.Cut(metrics, help)
	if !ok {
		return nil
	}
	block, _, _ := strings.Cut(rest, "\n# HELP ")
	return strings.Split(help+strings.TrimSuffix(block, "\n"), "\n")
}

// counterSum reads a counter off /metrics, as operators see it: the sum
// of family name's samples whose labels carry every key/value pair
// given, or of all of them when none is. A missing family fails the
// test.
func counterSum(t *testing.T, ts *httptest.Server, name string, labels ...string) int64 {
	t.Helper()
	fams, errs := parseExposition(metricsText(t, ts))
	if len(errs) > 0 {
		t.Fatalf("/metrics: %v", errs)
	}
	for _, f := range fams {
		if f.name != name {
			continue
		}
		var sum float64
	samples:
		for _, smp := range f.samples {
			for i := 0; i+1 < len(labels); i += 2 {
				if smp.labels[labels[i]] != labels[i+1] {
					continue samples
				}
			}
			sum += smp.value
		}
		return int64(sum)
	}
	t.Fatalf("/metrics has no %s family", name)
	return 0
}

// jsonAt follows a dotted path ("storage.perShard.1.quarantined") into
// decoded JSON; nil when the path leads nowhere.
func jsonAt(v any, path string) any {
	for _, k := range strings.Split(path, ".") {
		switch x := v.(type) {
		case map[string]any:
			v = x[k]
		case []any:
			i, err := strconv.Atoi(k)
			if err != nil || i < 0 || i >= len(x) {
				return nil
			}
			v = x[i]
		default:
			return nil
		}
	}
	return v
}

func toFloat(v any) float64 {
	f, _ := strconv.ParseFloat(fmt.Sprint(v), 64)
	return f
}

// TestSnapshotBytesMetrics: after a checkpoint, /metrics exposes the
// snapshot content files' bytes on disk and the raw bytes they decode
// to as one gauge family with a form label, and /healthz's storage
// block carries the same two numbers; stored is what the files
// measure on disk, and less than raw.
func TestSnapshotBytesMetrics(t *testing.T) {
	dir := t.TempDir()
	st, err := vstore.Open(dir, diff.Options{}, vstore.Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := New(st, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	for _, body := range []string{catalogV1, catalogV2} {
		for _, id := range []string{"a", "b"} {
			if code, _, resp := doReq(t, "PUT", ts.URL+"/docs/"+id, body); code >= 300 {
				t.Fatalf("PUT %s: %d %s", id, code, resp)
			}
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	var onDisk int64
	for _, pattern := range []string{"v1.xml", "delta-*.xml"} {
		files, err := filepath.Glob(filepath.Join(dir, "shard-*", "docs", "*", pattern))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			fi, err := os.Stat(f)
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
		}
	}
	ss := st.StorageStats()
	if ss.SnapshotStoredBytes != onDisk || ss.SnapshotRawBytes <= ss.SnapshotStoredBytes {
		t.Fatalf("stats say %d stored, %d raw; the content files measure %d", ss.SnapshotStoredBytes, ss.SnapshotRawBytes, onDisk)
	}

	_, _, metrics := doReq(t, "GET", ts.URL+"/metrics", "")
	lines := strings.Split(metrics, "\n")
	want := []string{
		"# TYPE xydiffd_store_snapshot_bytes gauge",
		fmt.Sprintf(`xydiffd_store_snapshot_bytes{form="stored"} %d`, ss.SnapshotStoredBytes),
		fmt.Sprintf(`xydiffd_store_snapshot_bytes{form="raw"} %d`, ss.SnapshotRawBytes),
	}
	var family []string
	for i, l := range lines {
		if strings.HasPrefix(l, "# HELP xydiffd_store_snapshot_bytes ") {
			family = append(family, lines[i+1:min(i+4, len(lines))]...)
		}
	}
	if strings.Join(family, "\n") != strings.Join(want, "\n") {
		t.Errorf("/metrics has %q after the HELP line, want %q", family, want)
	}
	_, _, health := doReq(t, "GET", ts.URL+"/healthz", "")
	var h struct {
		Storage map[string]any `json:"storage"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatal(err)
	}
	for key, v := range map[string]int64{"snapshotBytes": ss.SnapshotStoredBytes, "snapshotRawBytes": ss.SnapshotRawBytes} {
		if got, ok := h.Storage[key].(float64); !ok || int64(got) != v {
			t.Errorf("/healthz storage.%s = %v, want %d", key, h.Storage[key], v)
		}
	}
	if h.Storage["format"] != "vstore-v3" {
		t.Errorf("/healthz storage.format = %v, want vstore-v3", h.Storage["format"])
	}
}

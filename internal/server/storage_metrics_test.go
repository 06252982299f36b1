package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/vstore"
)

// TestStorageCacheMetrics: the version cache's counters reach /metrics
// as well-formed Prometheus families — HELP, then TYPE, then the one
// sample — and /healthz's storage block, with the values StorageStats
// reports. Two documents behind a one-slot cache make every PUT after
// the first restore its old version from a keyframe.
func TestStorageCacheMetrics(t *testing.T) {
	st, err := vstore.Open("", diff.Options{}, vstore.Config{CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
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
	for _, path := range []string{"/docs/a/versions/1", "/docs/a/deltas/1"} {
		if code, _, resp := doReq(t, "GET", ts.URL+path, ""); code != 200 {
			t.Fatalf("GET %s: %d %s", path, code, resp)
		}
	}
	ss := st.StorageStats()
	if ss.KeyframeRestores < 2 || ss.KeyframeBytes == 0 || ss.DeltasDecoded == 0 {
		t.Fatalf("storage stats %+v: want keyframe restores, keyframe bytes and decoded deltas", ss)
	}

	_, _, metrics := doReq(t, "GET", ts.URL+"/metrics", "")
	lines := strings.Split(metrics, "\n")
	_, _, health := doReq(t, "GET", ts.URL+"/healthz", "")
	var h struct {
		Storage map[string]any `json:"storage"`
	}
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		name, typ, key string
		value          int64
	}{
		{"xydiffd_store_cache_hits_total", "counter", "cacheHits", ss.CacheHits},
		{"xydiffd_store_cache_misses_total", "counter", "cacheMisses", ss.CacheMisses},
		{"xydiffd_store_keyframe_restores_total", "counter", "keyframeRestores", ss.KeyframeRestores},
		{"xydiffd_store_keyframe_fallbacks_total", "counter", "keyframeFallbacks", ss.KeyframeFallbacks},
		{"xydiffd_store_keyframe_bytes", "gauge", "keyframeBytes", ss.KeyframeBytes},
		{"xydiffd_store_deltas_decoded_total", "counter", "deltasDecoded", ss.DeltasDecoded},
	} {
		var family []string
		for i, l := range lines {
			if strings.HasPrefix(l, "# HELP "+m.name+" ") {
				family = append(family, lines[i:min(i+3, len(lines))]...)
			}
		}
		want := []string{
			"# TYPE " + m.name + " " + m.typ,
			fmt.Sprintf("%s %d", m.name, m.value),
		}
		if len(family) != 3 || family[1] != want[0] || family[2] != want[1] {
			t.Errorf("/metrics has %q for %s, want its HELP line then %q", family, m.name, want)
		}
		if got, ok := h.Storage[m.key].(float64); !ok || int64(got) != m.value {
			t.Errorf("/healthz storage.%s = %v, want %d", m.key, h.Storage[m.key], m.value)
		}
	}
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

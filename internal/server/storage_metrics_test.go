package server

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
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

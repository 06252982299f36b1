package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/faultfs"
	"xydiff/internal/faultfs/faultfstest"
	"xydiff/internal/vstore"
)

// newVstoreServer serves a sharded engine so the degraded/scrub
// surface is reachable over HTTP.
func newVstoreServer(t *testing.T, vcfg vstore.Config) (*vstore.Store, string, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	st, err := vstore.Open(dir, diff.Options{}, vcfg)
	if err != nil {
		t.Fatal(err)
	}
	s := New(st, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		st.Close()
	})
	return st, dir, ts
}

// degradeServerDoc puts versions, checkpoints them into a snapshot,
// corrupts the snapshot's base version and scrubs with repair off,
// leaving "doc" degraded.
func degradeServerDoc(t *testing.T, st *vstore.Store, dir string) {
	t.Helper()
	for v := 1; v <= 3; v++ {
		body := fmt.Sprintf(`<doc><rev>%d</rev></doc>`, v)
		doc, err := dom.ParseString(body)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Put("doc", doc); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	matches, _ := filepath.Glob(filepath.Join(dir, "shard-*", "docs", "doc", "v1.xml"))
	if len(matches) != 1 {
		t.Fatalf("want one snapshot of doc, have %v", matches)
	}
	if err := faultfstest.FlipBit(faultfs.OS{}, matches[0], 12, 2); err != nil {
		t.Fatal(err)
	}
	rep, err := st.ScrubPass(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quarantined == 0 {
		t.Fatalf("setup: scrub did not quarantine: %+v", rep)
	}
	if deg, _ := st.Degraded("doc"); !deg {
		t.Fatal("setup: doc not degraded")
	}
}

func TestDegradedReadsWarnNot500(t *testing.T) {
	st, dir, ts := newVstoreServer(t, vstore.Config{
		Shards: 1,
		Scrub:  vstore.ScrubConfig{Throttle: -1, NoRepair: true},
	})
	degradeServerDoc(t, st, dir)

	// Intact versions keep serving, flagged via Warning, never a 500.
	code, hdr, body := doReq(t, "GET", ts.URL+"/docs/doc", "")
	if code != http.StatusOK {
		t.Fatalf("latest = %d: %s", code, body)
	}
	if w := hdr.Get("Warning"); !strings.Contains(w, "degraded") {
		t.Fatalf("Warning header = %q", w)
	}
	code, hdr, _ = doReq(t, "GET", ts.URL+"/docs/doc/versions/2", "")
	if code != http.StatusOK || !strings.Contains(hdr.Get("Warning"), "degraded") {
		t.Fatalf("version read = %d, Warning %q", code, hdr.Get("Warning"))
	}

	// Puts keep working on the degraded document.
	code, _, body = doReq(t, "PUT", ts.URL+"/docs/doc", `<doc><rev>4</rev></doc>`)
	if code != http.StatusOK && code != http.StatusCreated {
		t.Fatalf("Put on degraded doc = %d: %s", code, body)
	}

	// /healthz carries the scrub + degraded state, per shard included.
	_, _, health := doReq(t, "GET", ts.URL+"/healthz", "")
	var h map[string]any
	if err := json.Unmarshal([]byte(health), &h); err != nil {
		t.Fatal(err)
	}
	storage, ok := h["storage"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no storage block: %s", health)
	}
	if storage["degradedDocs"].(float64) != 1 || storage["quarantined"].(float64) != 1 {
		t.Fatalf("healthz degraded/quarantined = %v/%v", storage["degradedDocs"], storage["quarantined"])
	}
	scrubBlock, ok := storage["scrub"].(map[string]any)
	if !ok || scrubBlock["cycles"].(float64) < 1 || scrubBlock["quarantined"].(float64) != 1 {
		t.Fatalf("healthz scrub block = %v", storage["scrub"])
	}
	shards, ok := storage["perShard"].([]any)
	if !ok || len(shards) != 1 {
		t.Fatalf("healthz perShard = %v", storage["perShard"])
	}
	sh := shards[0].(map[string]any)
	for _, key := range []string{"sealedSegments", "lastCompactUnix", "quarantined", "degradedDocs"} {
		if _, ok := sh[key]; !ok {
			t.Fatalf("healthz perShard missing %s: %v", key, sh)
		}
	}

	// /metrics exposes the xydiffd_scrub_* family.
	_, _, metrics := doReq(t, "GET", ts.URL+"/metrics", "")
	for _, name := range []string{
		"xydiffd_scrub_cycles_total",
		"xydiffd_scrub_scanned_bytes_total",
		"xydiffd_scrub_records_verified_total",
		"xydiffd_scrub_corruptions_found_total",
		"xydiffd_scrub_repaired_total",
		"xydiffd_scrub_quarantined_total",
		"xydiffd_scrub_last_cycle_seconds",
		"xydiffd_store_degraded_docs",
		"xydiffd_store_shard_sealed_segments",
		"xydiffd_store_shard_last_compact_unixtime",
	} {
		if !strings.Contains(metrics, "\n"+name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(metrics, "xydiffd_scrub_quarantined_total 1") {
		t.Error("quarantine count not exported")
	}
}

func TestDegradedMissingVersionIs410(t *testing.T) {
	st, dir, ts := newVstoreServer(t, vstore.Config{
		Shards: 1,
		Scrub:  vstore.ScrubConfig{Throttle: -1, NoRepair: true},
	})
	degradeServerDoc(t, st, dir)

	// Reopen-style gap: simulate by asking beyond the intact range on a
	// degraded doc — the typed error must map to 410 + Warning, not 500.
	code, hdr, body := doReq(t, "GET", ts.URL+"/docs/doc/versions/9", "")
	if code != http.StatusGone {
		t.Fatalf("missing degraded version = %d: %s", code, body)
	}
	if !strings.Contains(hdr.Get("Warning"), "degraded") {
		t.Fatalf("Warning header = %q", hdr.Get("Warning"))
	}
	var payload map[string]any
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload["degraded"] != true || payload["intactVersions"].(float64) != 3 {
		t.Fatalf("degraded payload = %v", payload)
	}

	// A one-version range past the intact end is the same missing
	// version; one inside it is an empty delta.
	if code, _, body := doReq(t, "GET", ts.URL+"/docs/doc/deltas/9..9", ""); code != http.StatusGone {
		t.Fatalf("delta range 9..9 on a degraded doc = %d: %s", code, body)
	}
	if code, _, body := doReq(t, "GET", ts.URL+"/docs/doc/deltas/2..2", ""); code != http.StatusOK || body != "<delta/>" {
		t.Fatalf("delta range 2..2 = %d: %s", code, body)
	}
}

// TestXMLPrefixDocumentSurvivesRestart: an XHTML-style document (xml:
// attributes) PUT over HTTP must still be served after the daemon
// restarts and rebuilds it from stored bytes. It used to answer 500:
// the stored text named the attribute by its namespace URI and did not
// reparse.
func TestXMLPrefixDocumentSurvivesRestart(t *testing.T) {
	const page = `<html xml:lang="en"><body xml:space="preserve"><p>hello</p></body></html>`
	dir := t.TempDir()
	serve := func() (*httptest.Server, func()) {
		st, err := vstore.Open(dir, diff.Options{}, vstore.Config{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		s := New(st, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
		ts := httptest.NewServer(s.Handler())
		return ts, func() {
			ts.Close()
			s.Close()
			if err := st.Checkpoint(); err != nil {
				t.Error(err)
			}
			if err := st.Close(); err != nil {
				t.Error(err)
			}
		}
	}
	ts, stop := serve()
	if code, _, body := doReq(t, http.MethodPut, ts.URL+"/docs/page", page); code != http.StatusCreated {
		t.Fatalf("PUT = %d %s", code, body)
	}
	stop()
	ts, stop = serve()
	defer stop()
	code, _, body := doReq(t, http.MethodGet, ts.URL+"/docs/page/versions/1", "")
	if code != http.StatusOK || body != page {
		t.Fatalf("GET after restart = %d %s", code, body)
	}
}

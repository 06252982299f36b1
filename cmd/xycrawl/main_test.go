package main

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/server"
	"xydiff/internal/vstore"
)

// TestRunCrawlsIntoDaemon is the two-process pipeline end to end: a
// changesim origin, a real xydiffd handler as the target, and xycrawl's
// run() in between. Fetched versions land in the daemon's store,
// mutations become diffed versions, and the registry with its learned
// validators survives shutdown.
func TestRunCrawlsIntoDaemon(t *testing.T) {
	origin, err := changesim.ServeCorpus(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin)
	defer originSrv.Close()
	paths := origin.Paths()

	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	st, err := vstore.Open("", diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	daemon := server.New(st, server.Config{Logger: quiet})
	daemonSrv := httptest.NewServer(daemon.Handler())
	defer func() {
		daemonSrv.Close()
		daemon.Close()
	}()

	cfg := config{
		target:       daemonSrv.URL,
		registry:     filepath.Join(t.TempDir(), "sources.json"),
		adds:         []string{"d0=" + originSrv.URL + paths[0], "d1=" + originSrv.URL + paths[1]},
		min:          20 * time.Millisecond,
		max:          100 * time.Millisecond,
		fetchTimeout: 2 * time.Second,
		logger:       quiet,
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg) }()

	get := func(path string) int {
		resp, err := http.Get(daemonSrv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode
	}
	waitCode := func(path string, want int) {
		deadline := time.Now().Add(5 * time.Second)
		for get(path) != want {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s to answer %d", path, want)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Both documents arrive as version 1.
	waitCode("/docs/d0/versions/1", http.StatusOK)
	waitCode("/docs/d1/versions/1", http.StatusOK)
	// A mutation at the origin becomes a diffed version 2 at the daemon.
	if err := origin.Mutate(paths[0]); err != nil {
		t.Fatal(err)
	}
	waitCode("/docs/d0/versions/2", http.StatusOK)
	waitCode("/docs/d0/deltas/1", http.StatusOK)

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	// The saved registry resumes with the learned validators.
	reg, err := crawl.OpenRegistry(cfg.registry)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 2 {
		t.Fatalf("saved registry has %d sources, want 2", reg.Len())
	}
	for _, id := range []string{"d0", "d1"} {
		src, ok := reg.Get(id)
		if !ok {
			t.Fatalf("source %s missing from saved registry", id)
		}
		if src.ETag == "" || src.Fetches == 0 {
			t.Errorf("source %s saved without learned state: %+v", id, src)
		}
	}
}

// TestRunRejectsEmptyAndMalformed covers the startup error paths.
func TestRunRejectsEmptyAndMalformed(t *testing.T) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ctx := context.Background()
	if err := run(ctx, config{target: "http://127.0.0.1:0", registry: "", logger: quiet}); err == nil {
		t.Error("run with no sources succeeded")
	}
	cfg := config{
		target:   "http://127.0.0.1:0",
		registry: "",
		adds:     []string{"bad=ftp://nope.example/x"},
		logger:   quiet,
	}
	if err := run(ctx, cfg); err == nil {
		t.Error("run with a non-http source succeeded")
	}
}

// TestIngestSurfacesRetryAfter: a 503 from the daemon's load shedding
// carries Retry-After; the ingester must return the typed error so the
// crawler's retry loop can honor the hint. Other failures stay plain.
func TestIngestSurfacesRetryAfter(t *testing.T) {
	var status int
	var retryAfter string
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		http.Error(w, "busy", status)
	}))
	defer daemon.Close()
	ing := &daemonIngester{target: daemon.URL, reg: crawl.NewRegistry()}
	ctx := context.Background()

	status, retryAfter = http.StatusServiceUnavailable, "7"
	_, err := ing.ingest(ctx, "d", []byte("<r/>"))
	var ra *crawl.RetryAfterError
	if !errors.As(err, &ra) || ra.After != 7*time.Second {
		t.Fatalf("503 + Retry-After: err = %v, want RetryAfterError{7s}", err)
	}

	// No header → plain error: nothing to honor.
	status, retryAfter = http.StatusServiceUnavailable, ""
	if _, err := ing.ingest(ctx, "d", []byte("<r/>")); err == nil || errors.As(err, &ra) {
		t.Fatalf("503 without header: err = %v, want plain error", err)
	}
	// 4xx never carries pacing, even with the header set.
	status, retryAfter = http.StatusBadRequest, "7"
	if _, err := ing.ingest(ctx, "d", []byte("<r/>")); err == nil || errors.As(err, &ra) {
		t.Fatalf("400: err = %v, want plain error", err)
	}
}

// TestIngestPassesTheSourcesMatcher: a source registered with a matcher
// is PUT with ?matcher=, so the daemon diffs it as the embedded crawler
// would; a source without one leaves the daemon its default.
func TestIngestPassesTheSourcesMatcher(t *testing.T) {
	var mu sync.Mutex
	queries := map[string]string{}
	daemon := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		queries[r.URL.Path] = r.URL.RawQuery
		mu.Unlock()
		w.WriteHeader(http.StatusCreated)
		_, _ = io.WriteString(w, `{"version":1,"deltaOps":0}`)
	}))
	defer daemon.Close()
	reg := crawl.NewRegistry()
	for _, src := range []crawl.Source{
		{ID: "page", URL: "http://origin.invalid/page", Matcher: "sftm"},
		{ID: "feed", URL: "http://origin.invalid/feed"},
	} {
		if _, err := reg.Add(src); err != nil {
			t.Fatal(err)
		}
	}
	ing := &daemonIngester{target: daemon.URL, reg: reg}
	for _, id := range []string{"page", "feed"} {
		if _, err := ing.ingest(context.Background(), id, []byte("<r/>")); err != nil {
			t.Fatalf("ingest %s: %v", id, err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if q := queries["/docs/page"]; q != "matcher=sftm" {
		t.Errorf("source with matcher sftm: query %q, want matcher=sftm", q)
	}
	if q, ok := queries["/docs/feed"]; !ok || q != "" {
		t.Errorf("source without a matcher: query %q (PUT seen: %v), want none", q, ok)
	}
}

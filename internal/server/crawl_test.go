package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xydiff/internal/crawl"
	"xydiff/internal/retry"
)

// startTestCrawler enables crawling on s and runs the crawler until the
// test ends.
func startTestCrawler(t *testing.T, s *Server, cfg crawl.Config) *crawl.Crawler {
	t.Helper()
	c := s.EnableCrawl(crawl.NewRegistry(), cfg)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := c.Run(ctx); err != nil {
			t.Errorf("crawler: %v", err)
		}
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return c
}

// TestCrawlConditionalGetBypassesDiff wires a crawler into the server
// against a static origin and proves the 304 path never reaches the
// diff pipeline: the diff counter stays frozen while the not-modified
// counter climbs.
func TestCrawlConditionalGetBypassesDiff(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"fixed"`)
		if r.Header.Get("If-None-Match") == `"fixed"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, catalogV1)
	}))
	defer origin.Close()

	s, ts := newTestServer(t, Config{})
	c := startTestCrawler(t, s, crawl.Config{
		MinInterval: 15 * time.Millisecond,
		MaxInterval: 60 * time.Millisecond,
	})

	// Seed one versioning diff through the normal PUT path so the diff
	// counter is provably live before crawling starts.
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/seed", catalogV1); code != http.StatusCreated {
		t.Fatalf("PUT seed v1: %d %s", code, body)
	}
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/seed", catalogV2); code != http.StatusOK {
		t.Fatalf("PUT seed v2: %d %s", code, body)
	}
	diffsBefore := counterSum(t, ts, "xydiffd_diffs_total")
	if diffsBefore == 0 {
		t.Fatal("diff counter not live after two PUTs")
	}

	// Register the static source over the HTTP API.
	code, _, body := doReq(t, "POST", ts.URL+"/sources", `{"id":"static","url":"`+origin.URL+`/doc"}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /sources: %d %s", code, body)
	}

	// Wait for the first 200 plus a few revalidations.
	deadline := time.Now().Add(5 * time.Second)
	var src crawl.Source
	for {
		var ok bool
		src, ok = c.Registry().Get("static")
		if ok && src.NotModified >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for 304s: %+v", src)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The initial 200 installed version 1 — which is not a diff — and
	// every revalidation after it skipped the pipeline entirely.
	if got := counterSum(t, ts, "xydiffd_diffs_total"); got != diffsBefore {
		t.Errorf("diff counter moved from %d to %d during 304-only crawling", diffsBefore, got)
	}
	if code, _, body := doReq(t, "GET", ts.URL+"/docs/static/versions/1", ""); code != http.StatusOK || body != catalogV1 {
		t.Errorf("crawled document not stored: %d %s", code, body)
	}

	// The crawler's counters and gauges are all on /metrics.
	_, _, metricsBody := doReq(t, "GET", ts.URL+"/metrics", "")
	for _, name := range []string{
		"xydiffd_crawl_fetches_total",
		"xydiffd_crawl_not_modified_total",
		"xydiffd_crawl_ingests_total",
		"xydiffd_crawl_retries_total",
		"xydiffd_crawl_failures_total",
		"xydiffd_crawl_circuit_opens_total",
		"xydiffd_crawl_open_circuits",
		"xydiffd_crawl_queue_depth",
		"xydiffd_crawl_sources",
	} {
		if !strings.Contains(metricsBody, "\n"+name+" ") {
			t.Errorf("/metrics missing %s", name)
		}
	}
	if !strings.Contains(metricsBody, "xydiffd_crawl_sources 1") {
		t.Error("/metrics sources gauge is not 1")
	}

	// /healthz carries the crawl summary.
	_, _, healthBody := doReq(t, "GET", ts.URL+"/healthz", "")
	var health map[string]any
	if err := json.Unmarshal([]byte(healthBody), &health); err != nil {
		t.Fatalf("parse healthz: %v", err)
	}
	ch, ok := health["crawl"].(map[string]any)
	if !ok {
		t.Fatalf("healthz has no crawl block: %s", healthBody)
	}
	if ch["sources"].(float64) != 1 {
		t.Errorf("healthz crawl sources = %v", ch["sources"])
	}
}

// TestSourcesAPI covers the CRUD surface: list, get, delete, and the
// error paths.
func TestSourcesAPI(t *testing.T) {
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "<doc/>")
	}))
	defer origin.Close()

	s, ts := newTestServer(t, Config{})
	startTestCrawler(t, s, crawl.Config{
		MinInterval: time.Minute, // nothing needs to be fetched here
		MaxInterval: time.Hour,
	})

	// Invalid bodies and URLs are rejected.
	if code, _, _ := doReq(t, "POST", ts.URL+"/sources", `{"id":"x","url":"ftp://nope"}`); code != http.StatusBadRequest {
		t.Errorf("bad scheme: code %d", code)
	}
	if code, _, _ := doReq(t, "POST", ts.URL+"/sources", `{"id":"x","url":"http://ok.example/x","extra":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: code %d", code)
	}

	for _, id := range []string{"a", "b"} {
		body := `{"id":"` + id + `","url":"` + origin.URL + `/` + id + `"}`
		if code, _, resp := doReq(t, "POST", ts.URL+"/sources", body); code != http.StatusCreated {
			t.Fatalf("POST source %s: %d %s", id, code, resp)
		}
	}
	code, _, listBody := doReq(t, "GET", ts.URL+"/sources", "")
	if code != http.StatusOK {
		t.Fatalf("GET /sources: %d", code)
	}
	var list []map[string]any
	if err := json.Unmarshal([]byte(listBody), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 || list[0]["id"] != "a" || list[1]["id"] != "b" {
		t.Errorf("list = %s", listBody)
	}

	if code, _, _ := doReq(t, "GET", ts.URL+"/sources/a", ""); code != http.StatusOK {
		t.Errorf("GET source a: %d", code)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/sources/zz", ""); code != http.StatusNotFound {
		t.Errorf("GET missing source: %d", code)
	}
	if code, _, _ := doReq(t, "DELETE", ts.URL+"/sources/a", ""); code != http.StatusOK {
		t.Errorf("DELETE source a: %d", code)
	}
	if code, _, _ := doReq(t, "DELETE", ts.URL+"/sources/a", ""); code != http.StatusNotFound {
		t.Errorf("DELETE again: %d", code)
	}
}

// TestSourcesAPIWithoutCrawler: a server running without the
// acquisition layer answers the source API with 503.
func TestSourcesAPIWithoutCrawler(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, probe := range []struct{ method, path, body string }{
		{"GET", "/sources", ""},
		{"POST", "/sources", `{"id":"x","url":"http://ok.example/x"}`},
		{"GET", "/sources/x", ""},
		{"DELETE", "/sources/x", ""},
	} {
		if code, _, _ := doReq(t, probe.method, ts.URL+probe.path, probe.body); code != http.StatusServiceUnavailable {
			t.Errorf("%s %s without crawler: code %d, want 503", probe.method, probe.path, code)
		}
	}
}

// waitSource polls the crawler's registry until done holds for source
// id, or fails the test after five seconds.
func waitSource(t *testing.T, c *crawl.Crawler, id string, done func(crawl.Source) bool) crawl.Source {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		src, ok := c.Registry().Get(id)
		if ok && done(src) {
			return src
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting on source %s: %+v", id, src)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrawlShedIsRetryAfter: with the diff pool full, a PUT and a
// crawled version are shed alike. Both are counted in
// xydiffd_queue_rejected_total, and they draw their hints from one
// growing sequence: the crawl ingest returns a *crawl.RetryAfterError
// whose After is the hint the next shed PUT would have carried in
// Retry-After.
func TestCrawlShedIsRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{workers: 1, queueDepth: 1})
	s.EnableCrawl(crawl.NewRegistry(), crawl.Config{})
	s.shedBackoff = retry.New(shedPolicy, 7)
	want := retry.New(shedPolicy, 7)
	hint := func() time.Duration { return max(want.Next().Round(time.Second), time.Second) }

	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // keep Close from deadlocking if the test bails early
	started := make(chan struct{})
	if err := s.pool.submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.pool.submit(func() {}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		code, hdr, body := doReq(t, "PUT", ts.URL+"/docs/d", catalogV1)
		if code != http.StatusServiceUnavailable {
			t.Fatalf("PUT under full queue = %d (%s), want 503", code, body)
		}
		if got, want := hdr.Get("Retry-After"), strconv.Itoa(int(hint()/time.Second)); got != want {
			t.Errorf("shed PUT %d: Retry-After %q, want %q", i, got, want)
		}
		_, err := s.crawlIngest(context.Background(), "d", []byte(catalogV1))
		var ra *crawl.RetryAfterError
		if !errors.As(err, &ra) {
			t.Fatalf("crawl ingest under full queue: err = %v, want *crawl.RetryAfterError", err)
		}
		if want := hint(); ra.After != want || !errors.Is(err, errQueueFull) {
			t.Errorf("shed crawl ingest %d: %v, want After %v wrapping ErrQueueFull", i, err, want)
		}
	}
	if want := "xydiffd_queue_rejected_total 6\n"; !strings.Contains(metricsText(t, ts), want) {
		t.Errorf("metrics lack %q", strings.TrimSpace(want))
	}

	unblock()
	deadline := time.Now().Add(5 * time.Second)
	for {
		changed, err := s.crawlIngest(context.Background(), "d", []byte(catalogV1))
		if err == nil {
			if !changed {
				t.Error("first crawled version reported unchanged")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("crawl ingest after drain: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// phaseSeconds reads xydiffd_diff_phase_seconds_total off /metrics,
// keyed by matcher and phase.
func phaseSeconds(t *testing.T, ts *httptest.Server) map[[2]string]float64 {
	t.Helper()
	out := map[[2]string]float64{}
	fams, errs := parseExposition(metricsText(t, ts))
	if len(errs) > 0 {
		t.Fatalf("/metrics: %v", errs)
	}
	for _, f := range fams {
		if f.name == "xydiffd_diff_phase_seconds_total" {
			for _, smp := range f.samples {
				out[[2]string{smp.labels["matcher"], smp.labels["phase"]}] = smp.value
			}
		}
	}
	return out
}

// TestCrawlSourceMatcher: a source registered with "matcher":"sftm" is
// diffed with SFTM. Its phase time shows up under matcher="sftm", and
// BULD's series do not move.
func TestCrawlSourceMatcher(t *testing.T) {
	pages := []string{
		`<html><body><h1>Shop</h1><ul><li>apple pie recipe</li><li>orange juice guide</li></ul></body></html>`,
		`<html><body><h1>Shop</h1><ul><li>orange juice guide</li><li>apple pie recipe</li></ul></body></html>`,
	}
	var page atomic.Int32
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Revalidations of an unchanged page cost no diff.
		p := page.Load()
		w.Header().Set("ETag", fmt.Sprintf(`"p%d"`, p))
		if r.Header.Get("If-None-Match") == fmt.Sprintf(`"p%d"`, p) {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		fmt.Fprint(w, pages[p])
	}))
	defer origin.Close()

	s, ts := newTestServer(t, Config{})
	c := startTestCrawler(t, s, crawl.Config{
		MinInterval: 15 * time.Millisecond,
		MaxInterval: 60 * time.Millisecond,
	})
	// One BULD diff first, so BULD's series are live before the crawl.
	doReq(t, "PUT", ts.URL+"/docs/seed", catalogV1)
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/seed", catalogV2); code != http.StatusOK {
		t.Fatalf("PUT seed v2: %d %s", code, body)
	}
	before := phaseSeconds(t, ts)

	body := `{"id":"page","url":"` + origin.URL + `/page","matcher":"sftm"}`
	if code, _, resp := doReq(t, "POST", ts.URL+"/sources", body); code != http.StatusCreated {
		t.Fatalf("POST /sources: %d %s", code, resp)
	}
	waitSource(t, c, "page", func(src crawl.Source) bool { return src.Changes >= 1 })
	page.Store(1)
	waitSource(t, c, "page", func(src crawl.Source) bool { return src.Changes >= 2 })

	after := phaseSeconds(t, ts)
	var sftm float64
	for key, v := range after {
		switch key[0] {
		case "sftm":
			sftm += v
		case "buld":
			if v != before[key] {
				t.Errorf("phase %s under matcher=buld moved %g -> %g during an sftm crawl", key[1], before[key], v)
			}
		}
	}
	if sftm == 0 {
		t.Errorf("no phase time under matcher=sftm after a crawled sftm diff: %v", after)
	}
	if n := counterSum(t, ts, "xydiffd_diffs_total", "matcher", "sftm"); n != 1 {
		t.Errorf("sftm diff count = %d, want 1", n)
	}
}

// TestCrawlBodyBound: the crawler's body bound is the server's
// MaxBodyBytes. A document a PUT is refused with 413 is never stored
// when an origin serves it, and the source counts the failures.
func TestCrawlBodyBound(t *testing.T) {
	big := productsAfter(2000)
	if len(big) <= 4096 {
		t.Fatalf("test document is only %d bytes", len(big))
	}
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, big)
	}))
	defer origin.Close()

	s, ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	c := startTestCrawler(t, s, crawl.Config{
		MinInterval: 15 * time.Millisecond,
		MaxInterval: 60 * time.Millisecond,
	})
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/put", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("PUT of %d bytes = %d (%s), want 413", len(big), code, body)
	}
	if code, _, resp := doReq(t, "POST", ts.URL+"/sources", `{"id":"big","url":"`+origin.URL+`/big"}`); code != http.StatusCreated {
		t.Fatalf("POST /sources: %d %s", code, resp)
	}
	waitSource(t, c, "big", func(src crawl.Source) bool { return src.Errors >= 2 })
	if code, _, _ := doReq(t, "GET", ts.URL+"/docs/big", ""); code != http.StatusNotFound {
		t.Errorf("GET crawled oversize document = %d, want 404", code)
	}
	if n := s.store.Versions("big"); n != 0 {
		t.Errorf("oversize crawled document stored as %d versions", n)
	}
}

// TestSourcesDurableBeforeAck: POST /sources and DELETE /sources/{id}
// save the registry before they answer, so what a restart after a
// crash opens is what was acknowledged; a failed save answers 500 and
// leaves the registry as it was.
func TestSourcesDurableBeforeAck(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "crawl-sources.json")
	reg, err := crawl.OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	s.EnableCrawl(reg, crawl.Config{})
	reopened := func() *crawl.Registry {
		t.Helper()
		re, err := crawl.OpenRegistry(path)
		if err != nil {
			t.Fatal(err)
		}
		return re
	}

	if code, _, body := doReq(t, "POST", ts.URL+"/sources", `{"id":"a","url":"http://origin.invalid/a"}`); code != http.StatusCreated {
		t.Fatalf("POST a: %d %s", code, body)
	}
	if _, ok := reopened().Get("a"); !ok {
		t.Fatal("source a acknowledged with 201 but not in the registry file")
	}
	if code, _, body := doReq(t, "DELETE", ts.URL+"/sources/a", ""); code != http.StatusOK {
		t.Fatalf("DELETE a: %d %s", code, body)
	}
	if n := reopened().Len(); n != 0 {
		t.Fatalf("registry file has %d sources after DELETE answered 200", n)
	}

	// With the directory gone, no save can succeed.
	if code, _, body := doReq(t, "POST", ts.URL+"/sources", `{"id":"b","url":"http://origin.invalid/b"}`); code != http.StatusCreated {
		t.Fatalf("POST b: %d %s", code, body)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := doReq(t, "POST", ts.URL+"/sources", `{"id":"c","url":"http://origin.invalid/c"}`); code != http.StatusInternalServerError {
		t.Errorf("POST c with a failing save = %d, want 500", code)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/sources/c", ""); code != http.StatusNotFound {
		t.Errorf("source c registered although its save failed: %d", code)
	}
	if code, _, _ := doReq(t, "DELETE", ts.URL+"/sources/b", ""); code != http.StatusInternalServerError {
		t.Errorf("DELETE b with a failing save = %d, want 500", code)
	}
	if code, _, _ := doReq(t, "GET", ts.URL+"/sources/b", ""); code != http.StatusOK {
		t.Errorf("source b gone although its delete's save failed: %d", code)
	}
}

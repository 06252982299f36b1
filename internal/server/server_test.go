package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
	"xydiff/internal/xid"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := New(memoryStore(t), cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// memoryStore opens a store without a directory.
func memoryStore(t testing.TB) *vstore.Store {
	t.Helper()
	st, err := vstore.Open("", diff.Options{}, vstore.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func doReq(t *testing.T, method, url, body string) (int, http.Header, string) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rdr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, string(b)
}

const (
	catalogV1 = `<Catalog><Category><Product><Name>tx123</Name><Price>$499</Price></Product></Category></Catalog>`
	catalogV2 = `<Catalog><Category><Product><Name>tx123</Name><Price>$499</Price></Product><Product><Name>zy456</Name><Price>$799</Price></Product></Category></Catalog>`
)

// TestEndToEnd exercises the full change-control loop over HTTP: two
// versions in, delta out (and it applies), version 1 reconstructs byte
// for byte, a subscription matches, and /metrics shows the traffic.
func TestEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Subscribe before any version arrives.
	sub := `{"id":"new-products","doc":"catalog","path":"Category/Product","kinds":["insert"]}`
	if code, _, body := doReq(t, "POST", ts.URL+"/subscriptions", sub); code != http.StatusCreated {
		t.Fatalf("POST subscription: %d %s", code, body)
	}

	// PUT two versions.
	code, _, body := doReq(t, "PUT", ts.URL+"/docs/catalog", catalogV1)
	if code != http.StatusCreated {
		t.Fatalf("PUT v1: %d %s", code, body)
	}
	code, _, body = doReq(t, "PUT", ts.URL+"/docs/catalog", catalogV2)
	if code != http.StatusOK {
		t.Fatalf("PUT v2: %d %s", code, body)
	}
	var putResp struct {
		Version    int `json:"version"`
		DeltaOps   int `json:"deltaOps"`
		DeltaBytes int `json:"deltaBytes"`
	}
	if err := json.Unmarshal([]byte(body), &putResp); err != nil {
		t.Fatal(err)
	}
	if putResp.Version != 2 || putResp.DeltaOps == 0 || putResp.DeltaBytes == 0 {
		t.Fatalf("PUT v2 response = %+v", putResp)
	}

	// GET version 1: byte-level reconstruction of the canonical form.
	code, hdr, v1Body := doReq(t, "GET", ts.URL+"/docs/catalog/versions/1", "")
	if code != http.StatusOK {
		t.Fatalf("GET v1: %d %s", code, v1Body)
	}
	if hdr.Get("X-Xydiff-Version") != "1" {
		t.Errorf("version header = %q", hdr.Get("X-Xydiff-Version"))
	}
	if v1Body != catalogV1 {
		t.Errorf("v1 reconstruction:\n got %s\nwant %s", v1Body, catalogV1)
	}

	// GET the delta and verify it applies: v1 + delta == latest.
	code, _, deltaBody := doReq(t, "GET", ts.URL+"/docs/catalog/deltas/1", "")
	if code != http.StatusOK {
		t.Fatalf("GET delta: %d %s", code, deltaBody)
	}
	d, err := delta.ParseString(deltaBody)
	if err != nil {
		t.Fatalf("parse served delta: %v", err)
	}
	v1Doc, err := dom.ParseString(v1Body)
	if err != nil {
		t.Fatal(err)
	}
	xid.Assign(v1Doc) // canonical post-order XIDs, as the store assigns
	if err := delta.Apply(v1Doc, d); err != nil {
		t.Fatalf("apply served delta: %v", err)
	}
	_, _, latestBody := doReq(t, "GET", ts.URL+"/docs/catalog", "")
	if got := v1Doc.String(); got != latestBody {
		t.Errorf("delta application:\n got %s\nwant %s", got, latestBody)
	}
	if latestBody != catalogV2 {
		t.Errorf("latest = %s", latestBody)
	}

	// The subscription matched the inserted product.
	code, _, alertsBody := doReq(t, "GET", ts.URL+"/docs/catalog/alerts", "")
	if code != http.StatusOK {
		t.Fatalf("GET alerts: %d %s", code, alertsBody)
	}
	var alerts []alertJSON
	if err := json.Unmarshal([]byte(alertsBody), &alerts); err != nil {
		t.Fatal(err)
	}
	if len(alerts) != 1 || alerts[0].Sub != "new-products" || alerts[0].Kind != "insert" || alerts[0].Version != 2 {
		t.Fatalf("alerts = %+v", alerts)
	}

	// /metrics shows nonzero request and diff counters.
	code, _, metricsBody := doReq(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("GET metrics: %d", code)
	}
	for _, re := range []string{
		`xydiffd_http_requests_total\{route="doc_put",method="PUT",code="200"\} [1-9]`,
		`xydiffd_diffs_total\{matcher="buld"\} [1-9]`,
		`xydiffd_diffs_total\{matcher="sftm"\} 0`,
		`xydiffd_diff_phase_seconds_total\{matcher="buld",phase="buld"\} `,
		`xydiffd_change_ops_total\{kind="insert"\} [1-9]`,
		`xydiffd_alerts_total [1-9]`,
		`xydiffd_store_documents 1`,
		`xydiffd_http_request_seconds_count [1-9]`,
	} {
		if !regexp.MustCompile(re).MatchString(metricsBody) {
			t.Errorf("metrics missing %s\n%s", re, metricsBody)
		}
	}
}

func TestAggregatedDelta(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	versions := []string{
		`<r><a>1</a></r>`,
		`<r><a>2</a></r>`,
		`<r><a>2</a><b>x</b></r>`,
	}
	for _, v := range versions {
		if code, _, body := doReq(t, "PUT", ts.URL+"/docs/d", v); code >= 300 {
			t.Fatalf("PUT: %d %s", code, body)
		}
	}
	code, _, body := doReq(t, "GET", ts.URL+"/docs/d/deltas/1..3", "")
	if code != http.StatusOK {
		t.Fatalf("GET aggregate: %d %s", code, body)
	}
	d, err := delta.ParseString(body)
	if err != nil {
		t.Fatal(err)
	}
	_, _, v1 := doReq(t, "GET", ts.URL+"/docs/d/versions/1", "")
	doc, err := dom.ParseString(v1)
	if err != nil {
		t.Fatal(err)
	}
	xid.Assign(doc)
	if err := delta.Apply(doc, d); err != nil {
		t.Fatalf("apply aggregate: %v", err)
	}
	if got := doc.String(); got != versions[2] {
		t.Errorf("aggregate application = %s, want %s", got, versions[2])
	}
}

func TestNotFoundAndBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doReq(t, "PUT", ts.URL+"/docs/d", `<r/>`)
	cases := []struct {
		method, path string
		body         string
		want         int
	}{
		{"GET", "/docs/ghost", "", http.StatusNotFound},
		{"GET", "/docs/d/versions/9", "", http.StatusNotFound},
		{"GET", "/docs/d/versions/x", "", http.StatusBadRequest},
		{"GET", "/docs/d/deltas/1", "", http.StatusNotFound}, // only one version
		{"GET", "/docs/ghost/deltas/1..2", "", http.StatusNotFound},
		{"GET", "/docs/ghost/deltas/3..3", "", http.StatusNotFound},
		{"GET", "/docs/d/deltas/9..9", "", http.StatusNotFound},
		{"GET", "/docs/d/deltas/0..0", "", http.StatusNotFound},
		{"GET", "/docs/d/deltas/1..1", "", http.StatusOK},
		{"GET", "/docs/d/deltas/x..y", "", http.StatusBadRequest},
		{"GET", "/docs/d/deltas/bogus", "", http.StatusBadRequest},
		{"PUT", "/docs/d", "not xml", http.StatusBadRequest},
		{"POST", "/subscriptions", `{"path":"x"}`, http.StatusBadRequest}, // no id
		{"POST", "/subscriptions", `{"id":"q","query":"[["}`, http.StatusBadRequest},
		{"POST", "/subscriptions", `{"id":"k","kinds":["bogus"]}`, http.StatusBadRequest},
		{"DELETE", "/subscriptions/ghost", "", http.StatusNotFound},
		{"GET", "/docs/d/alerts?follow=bogus", "", http.StatusBadRequest},
	}
	for _, c := range cases {
		if code, _, body := doReq(t, c.method, ts.URL+c.path, c.body); code != c.want {
			t.Errorf("%s %s = %d (%s), want %d", c.method, c.path, code, strings.TrimSpace(body), c.want)
		}
	}
}

func TestSubscriptionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	sub := `{"id":"expensive","query":"//Product[Price>500]","kinds":["insert","update"]}`
	if code, _, body := doReq(t, "POST", ts.URL+"/subscriptions", sub); code != http.StatusCreated {
		t.Fatalf("POST: %d %s", code, body)
	}
	_, _, listBody := doReq(t, "GET", ts.URL+"/subscriptions", "")
	var subs []subscriptionJSON
	if err := json.Unmarshal([]byte(listBody), &subs); err != nil {
		t.Fatal(err)
	}
	if len(subs) != 1 || subs[0].Query != "//Product[Price>500]" || len(subs[0].Kinds) != 2 {
		t.Fatalf("subscriptions = %+v", subs)
	}
	if code, _, _ := doReq(t, "DELETE", ts.URL+"/subscriptions/expensive", ""); code != http.StatusOK {
		t.Fatalf("DELETE: %d", code)
	}
	_, _, listBody = doReq(t, "GET", ts.URL+"/subscriptions", "")
	if strings.TrimSpace(listBody) != "[]" {
		t.Errorf("after delete: %s", listBody)
	}
}

// TestBackpressure deterministically fills the one-worker, depth-one
// pool and verifies the next request is shed with 503 + Retry-After.
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{workers: 1, queueDepth: 1})
	release := make(chan struct{})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	defer unblock() // keep Close from deadlocking if the test bails early
	// Occupy the worker (wait until it has dequeued the job), then fill
	// the single queue slot.
	started := make(chan struct{})
	if err := s.pool.submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.pool.submit(func() {}); err != nil {
		t.Fatal(err)
	}
	code, hdr, body := doReq(t, "PUT", ts.URL+"/docs/d", `<r/>`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("PUT under full queue = %d (%s), want 503", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("missing Retry-After")
	}
	unblock()
	// The pool drains and service resumes. A retry can still find the
	// queued job in its slot and be shed too; each one it sees counts.
	deadline := time.Now().Add(5 * time.Second)
	retried := 0
	for {
		code, _, _ = doReq(t, "PUT", ts.URL+"/docs/d", `<r/>`)
		if code == http.StatusCreated || time.Now().After(deadline) {
			break
		}
		if code == http.StatusServiceUnavailable {
			retried++
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code != http.StatusCreated {
		t.Fatalf("PUT after drain = %d", code)
	}
	if want := fmt.Sprintf("xydiffd_queue_rejected_total %d\n", 1+retried); !strings.Contains(metricsText(t, ts), want) {
		t.Errorf("metrics lack %q", strings.TrimSpace(want))
	}
}

func metricsText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	_, _, body := doReq(t, "GET", ts.URL+"/metrics", "")
	return body
}

// TestClosedPool verifies writes are refused (not panicking) after
// Close, as during graceful shutdown.
func TestClosedPool(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.Close()
	code, _, _ := doReq(t, "PUT", ts.URL+"/docs/d", `<r/>`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("PUT after Close = %d, want 503", code)
	}
	// Reads still work against the store.
	if code, _, _ := doReq(t, "GET", ts.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz after Close = %d", code)
	}
}

// TestAlertStreaming registers a follow stream, installs a new version
// that matches a subscription, and expects the alert as NDJSON without
// polling.
func TestAlertStreaming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doReq(t, "POST", ts.URL+"/subscriptions", `{"id":"live","kinds":["insert"]}`)
	doReq(t, "PUT", ts.URL+"/docs/feed", `<r><item>a</item></r>`)
	// Version 2's alert is in the log before the stream opens; the
	// stream must not replay it.
	doReq(t, "PUT", ts.URL+"/docs/feed", `<r><item>a</item><old>x</old></r>`)

	resp, err := http.Get(ts.URL + "/docs/feed/alerts?follow=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow status = %d", resp.StatusCode)
	}
	// Headers are flushed after the stream takes its cursor, so the
	// next Put's alerts are guaranteed to reach the stream.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		if sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	doReq(t, "PUT", ts.URL+"/docs/feed", `<r><item>a</item><old>x</old><item>b</item></r>`)
	select {
	case line := <-lines:
		var a alertJSON
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		if a.Sub != "live" || a.Doc != "feed" || a.Kind != "insert" || a.Version != 3 {
			t.Errorf("streamed alert = %+v", a)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no alert streamed")
	}
}

func TestHealthzAndDocsList(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for i := 0; i < 3; i++ {
		doReq(t, "PUT", ts.URL+fmt.Sprintf("/docs/doc-%d", i), `<r/>`)
	}
	code, _, body := doReq(t, "GET", ts.URL+"/healthz", "")
	if code != http.StatusOK || !strings.Contains(body, `"documents": 3`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	_, _, listBody := doReq(t, "GET", ts.URL+"/docs", "")
	var docs []struct {
		ID       string `json:"id"`
		Versions int    `json:"versions"`
	}
	if err := json.Unmarshal([]byte(listBody), &docs); err != nil {
		t.Fatal(err)
	}
	if len(docs) != 3 || docs[0].ID != "doc-0" || docs[0].Versions != 1 {
		t.Fatalf("docs = %+v", docs)
	}
}

// TestBodySizeHint: the buffer a PUT body starts in is its declared
// length, capped by the body limit and maxBodyPrealloc; a chunked body
// (length -1) gets none.
func TestBodySizeHint(t *testing.T) {
	for _, tc := range []struct {
		length, limit int64
		want          int
	}{
		{150_000, 16 << 20, 150_000},
		{0, 16 << 20, 0},
		{-1, 16 << 20, 0},
		{1 << 30, 16 << 20, maxBodyPrealloc},
		{8192, 4096, 4096},
	} {
		if got := bodySizeHint(tc.length, tc.limit); got != tc.want {
			t.Errorf("bodySizeHint(%d, %d) = %d, want %d", tc.length, tc.limit, got, tc.want)
		}
	}
}

// rawPut sends one PUT over a fresh connection as the bytes given after
// the request line and Host header, half-closing it after them when
// short is set (the body is shorter than declared), and returns the
// response's status and body. A complete request is not half-closed:
// the server takes end of input after a body for a client that left,
// and cancels the request.
func rawPut(t *testing.T, ts *httptest.Server, path, rest string, short bool) (int, string) {
	t.Helper()
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "PUT "+path+" HTTP/1.1\r\nHost: test\r\nConnection: close\r\n"+rest); err != nil {
		t.Fatal(err)
	}
	if short {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestPutBodyLengths: a body read by its declared length behaves as one
// read without it. An exact body is stored; a body shorter than
// declared is a 400; a longer one is cut at the declared length, which
// is all the server reads; a chunked one is stored; a length the limit
// cannot hold is a 413.
func TestPutBodyLengths(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 4096})
	doc := catalogV1
	for _, tc := range []struct {
		name, path, rest string
		code             int
		stored           string
	}{
		{"exact", "/docs/exact", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(doc), doc), http.StatusCreated, doc},
		{"shorter", "/docs/shorter", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", len(doc)+100, doc), http.StatusBadRequest, ""},
		{"longer", "/docs/longer", fmt.Sprintf("Content-Length: %d\r\n\r\n%s<extra/>", len(doc), doc), http.StatusCreated, doc},
		{"chunked", "/docs/chunked", fmt.Sprintf("Transfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n%x\r\n%s\r\n0\r\n\r\n",
			len(doc[:20]), doc[:20], len(doc[20:]), doc[20:]), http.StatusCreated, doc},
		{"declared huge, sent little", "/docs/huge", fmt.Sprintf("Content-Length: %d\r\n\r\n%s", 1<<30, doc), http.StatusBadRequest, ""},
		{"past the limit", "/docs/big", fmt.Sprintf("Content-Length: 5000\r\n\r\n<r>%s</r>", strings.Repeat("a", 5000-7)), http.StatusRequestEntityTooLarge, ""},
	} {
		code, body := rawPut(t, ts, tc.path, tc.rest, tc.code == http.StatusBadRequest)
		if code != tc.code {
			t.Fatalf("%s: status %d (%s), want %d", tc.name, code, body, tc.code)
		}
		if tc.stored == "" {
			continue
		}
		if code, _, got := doReq(t, "GET", ts.URL+tc.path+"/versions/1", ""); code != http.StatusOK || got != tc.stored {
			t.Fatalf("%s: stored %d %q, want %q", tc.name, code, got, tc.stored)
		}
	}
}

// TestPutBodyPreallocation: a PUT whose headers declare a 1 GiB body
// and which then sends nothing makes the server hold no buffer for it;
// once one byte arrives the buffer is at most maxBodyPrealloc, and when
// the client gives up the request is a 400.
func TestPutBodyPreallocation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// The live heap, not bytes allocated: a race build allocates a grown
	// buffer twice.
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := live()
	if _, err := fmt.Fprintf(conn, "PUT /docs/huge HTTP/1.1\r\nHost: test\r\nContent-Length: %d\r\n\r\n", 1<<30); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // the handler waits for the body
	if grew := live() - before; grew > maxBodyPrealloc/4 {
		t.Fatalf("headers declaring 1 GiB and no body hold %d bytes", grew)
	}
	if _, err := io.WriteString(conn, "<"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if grew := live() - before; grew > maxBodyPrealloc+maxBodyPrealloc/4 {
		t.Fatalf("one byte of a declared 1 GiB body holds %d bytes", grew)
	}
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want %d", resp.StatusCode, http.StatusBadRequest)
	}
}

func TestPutParseLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{parseLimits: dom.ParseLimits{MaxDepth: 5, MaxTokens: 50}, MaxBodyBytes: 4096})

	deep := strings.Repeat("<a>", 10) + "x" + strings.Repeat("</a>", 10)
	code, _, body := doReq(t, "PUT", ts.URL+"/docs/deep", deep)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("deep document: got %d %s, want 422", code, body)
	}

	wide := "<r>" + strings.Repeat("<p>x</p>", 40) + "</r>"
	code, _, body = doReq(t, "PUT", ts.URL+"/docs/wide", wide)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("token-heavy document: got %d %s, want 422", code, body)
	}

	big := "<r>" + strings.Repeat("a", 8192) + "</r>"
	code, _, body = doReq(t, "PUT", ts.URL+"/docs/big", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized document: got %d %s, want 413", code, body)
	}

	ok := "<r><p>fine</p></r>"
	code, _, body = doReq(t, "PUT", ts.URL+"/docs/ok", ok)
	if code != http.StatusCreated {
		t.Fatalf("small document: got %d %s, want 201", code, body)
	}
}

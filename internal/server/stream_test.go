package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedWriter is a ResponseWriter standing in for a consumer that stops
// reading: every body write blocks until the gate opens. It implements
// http.Flusher so the NDJSON handler accepts it.
type gatedWriter struct {
	mu       sync.Mutex
	header   http.Header
	code     int
	buf      bytes.Buffer
	gate     chan struct{}
	attempts atomic.Int64
}

func newGatedWriter() *gatedWriter {
	return &gatedWriter{header: make(http.Header), gate: make(chan struct{})}
}

func (w *gatedWriter) Header() http.Header { return w.header }

func (w *gatedWriter) WriteHeader(code int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.code == 0 {
		w.code = code
	}
}

func (w *gatedWriter) status() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.code
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.attempts.Add(1)
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func (w *gatedWriter) Flush() {}

func (w *gatedWriter) release() { close(w.gate) }

func (w *gatedWriter) lines() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for _, l := range strings.Split(w.buf.String(), "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}

// product is a catalog of n+1 products. Version 1 of a document raises
// nothing; each later PUT of product(n+1) after product(n) appends one
// product and raises exactly one insert alert.
func product(n int) string {
	var b strings.Builder
	b.WriteString("<Catalog><Category>")
	for i := 0; i <= n; i++ {
		b.WriteString("<Product><Name>p")
		b.WriteString(strings.Repeat("x", i+1))
		b.WriteString("</Name></Product>")
	}
	b.WriteString("</Category></Catalog>")
	return b.String()
}

// openStalledStream starts an NDJSON stream of doc's alerts whose
// consumer never reads, and returns once the handler has attached its
// sink; cancel ends the stream and done closes once it returned.
func openStalledStream(t *testing.T, s *Server, doc string) (w *gatedWriter, cancel context.CancelFunc, done <-chan struct{}) {
	t.Helper()
	w = newGatedWriter()
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest("GET", "/docs/"+doc+"/alerts?follow=30s", nil).WithContext(ctx)
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		s.Handler().ServeHTTP(w, req)
	}()
	// The handler attaches its sink on its own goroutine, then answers
	// 200; an alert raised before that reaches nobody.
	for start := time.Now(); w.status() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			cancel()
			t.Fatal("stream handler never started")
		}
	}
	return w, cancel, streamDone
}

// waitWriting waits until the stream is wedged writing its first alert
// to the stalled consumer, so the buffer accounting after it is
// deterministic.
func waitWriting(t *testing.T, w *gatedWriter) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); w.attempts.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stream never tried to write the first alert")
		}
	}
}

// TestAlertStreamSlowConsumer pins down the bounded-buffer contract of
// the NDJSON alert stream: a consumer that stops reading holds at most
// StreamBuffer alerts plus the one in flight; everything beyond that is
// dropped, the loss is visible in the drop counter, and the diff path
// is never stalled.
func TestAlertStreamSlowConsumer(t *testing.T) {
	const streamBuffer = 4
	s, ts := newTestServer(t, Config{StreamBuffer: streamBuffer})

	sub := `{"id":"all","doc":"d","kinds":["insert"]}`
	if code, _, body := doReq(t, "POST", ts.URL+"/subscriptions", sub); code != http.StatusCreated {
		t.Fatalf("POST subscription: %d %s", code, body)
	}

	// Open the stream against a consumer that never reads.
	w, cancel, streamDone := openStalledStream(t, s, "d")
	defer cancel()

	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/d", product(0)); code != http.StatusCreated {
		t.Fatalf("PUT v1: %d %s", code, body)
	}

	// First alert: wait until the handler is wedged writing it.
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/d", product(1)); code != http.StatusOK {
		t.Fatalf("PUT v2: %d %s", code, body)
	}
	waitWriting(t, w)

	// Flood: 14 more alerts against a full pipe. One is in flight,
	// StreamBuffer fit in the channel, the rest must be dropped — and
	// every PUT still completes immediately (bounded buffering means the
	// write path never waits on a consumer).
	const flood = 14
	for i := 0; i < flood; i++ {
		if code, _, body := doReq(t, "PUT", ts.URL+"/docs/d", product(i+2)); code != http.StatusOK {
			t.Fatalf("PUT flood %d: %d %s", i, code, body)
		}
	}
	raised := 1 + flood

	// Let the consumer drain: the in-flight alert plus the buffered ones
	// arrive, no more.
	w.release()
	wantDelivered := 1 + streamBuffer
	waitDeadline := time.Now().Add(5 * time.Second)
	for len(w.lines()) < wantDelivered {
		if time.Now().After(waitDeadline) {
			t.Fatalf("delivered %d alerts, want %d", len(w.lines()), wantDelivered)
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // any extra delivery would be a bug
	cancel()
	<-streamDone

	lines := w.lines()
	if len(lines) != wantDelivered {
		t.Errorf("delivered %d alerts, want exactly %d (1 in flight + %d buffered)",
			len(lines), wantDelivered, streamBuffer)
	}
	for _, l := range lines {
		var a struct {
			Doc  string `json:"doc"`
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(l), &a); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		if a.Doc != "d" || a.Kind != "insert" {
			t.Errorf("unexpected alert %q", l)
		}
	}

	// Drop accounting: delivered + dropped covers everything raised.
	dropped := s.Metrics().StreamDropped()
	if want := int64(raised - wantDelivered); dropped != want {
		t.Errorf("dropped = %d, want %d (raised %d, delivered %d)", dropped, want, raised, wantDelivered)
	}

	// And the loss is on /metrics.
	_, _, metricsBody := doReq(t, "GET", ts.URL+"/metrics", "")
	if !strings.Contains(metricsBody, "xydiffd_alert_stream_dropped_total") {
		t.Error("/metrics missing xydiffd_alert_stream_dropped_total")
	}
}

// TestAlertStreamIgnoresOtherDocuments: a stalled stream of a quiet
// document keeps its own alerts while a busy document raises many more
// than its buffer holds. The busy document's alerts never enter the
// quiet stream's buffer, so none of them is counted as its loss either.
func TestAlertStreamIgnoresOtherDocuments(t *testing.T) {
	const streamBuffer = 4
	s, ts := newTestServer(t, Config{StreamBuffer: streamBuffer})
	if code, _, body := doReq(t, "POST", ts.URL+"/subscriptions", `{"id":"all","kinds":["insert"]}`); code != http.StatusCreated {
		t.Fatalf("POST subscription: %d %s", code, body)
	}
	w, cancel, streamDone := openStalledStream(t, s, "q")
	defer cancel()

	put := func(doc string, n int) {
		t.Helper()
		if code, _, body := doReq(t, "PUT", ts.URL+"/docs/"+doc, product(n)); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT %s v%d: %d %s", doc, n+1, code, body)
		}
	}
	put("q", 0)
	put("q", 1)
	waitWriting(t, w)
	const busy = 20
	for n := 0; n <= busy; n++ {
		put("b", n) // version 1 and then busy alerts
	}
	put("q", 2)

	w.release()
	for deadline := time.Now().Add(5 * time.Second); len(w.lines()) < 2; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("delivered %d alerts of q, want 2", len(w.lines()))
		}
	}
	time.Sleep(50 * time.Millisecond) // any extra delivery would be a bug
	cancel()
	<-streamDone

	lines := w.lines()
	if len(lines) != 2 {
		t.Errorf("delivered %d alerts, want q's 2: %q", len(lines), lines)
	}
	for i, l := range lines {
		var a alertJSON
		if err := json.Unmarshal([]byte(l), &a); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", l, err)
		}
		if a.Doc != "q" || a.Version != i+2 {
			t.Errorf("line %d is %q, want q's alert of version %d", i, l, i+2)
		}
	}
	if d := s.Metrics().StreamDropped(); d != 0 {
		t.Errorf("dropped = %d, want 0: b's alerts are not the q stream's loss", d)
	}
}

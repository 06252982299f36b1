package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/vstore"
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

// productsAfter is product(1) followed by n more products: a PUT of it
// after product(1) raises n insert alerts in one batch.
func productsAfter(n int) string {
	var b strings.Builder
	b.WriteString(strings.TrimSuffix(product(1), "</Category></Catalog>"))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<Product><Name>q%d</Name></Product>", i)
	}
	b.WriteString("</Category></Catalog>")
	return b.String()
}

// openStalledStream starts an NDJSON stream of doc's alerts whose
// consumer never reads, and returns once the handler has taken its
// cursor; cancel ends the stream and done closes once it returned.
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
	// The handler takes its cursor on its own goroutine, then answers
	// 200; an alert raised before that is not the stream's.
	for start := time.Now(); w.status() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			cancel()
			t.Fatal("stream handler never started")
		}
	}
	return w, cancel, streamDone
}

// waitWriting waits until the stream is wedged writing its first alert
// to the stalled consumer, so the accounting after it is deterministic.
func waitWriting(t *testing.T, w *gatedWriter) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); w.attempts.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("stream never tried to write the first alert")
		}
	}
}

// TestAlertStreamSlowConsumer pins down the bounded contract of the
// NDJSON alert stream: a consumer that stops reading gets the alert in
// flight plus the alertLogSize alerts the document's log still keeps;
// everything the log trimmed before the stream read it is dropped, the
// loss is visible in the drop counter, and the diff path is never
// stalled.
func TestAlertStreamSlowConsumer(t *testing.T) {
	s, ts := newTestServer(t, Config{})

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

	// Flood: one PUT raises more alerts than the log keeps. One alert is
	// in flight, the log keeps its last alertLogSize, the rest must be
	// dropped — and the PUT completes while the consumer is stalled (the
	// write path never waits on a consumer).
	const flood = alertLogSize + 76
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/d", productsAfter(flood)); code != http.StatusOK {
		t.Fatalf("PUT flood: %d %s", code, body)
	}
	raised := int(counterSum(t, ts, "xydiffd_alerts_total"))
	if raised < 1+flood {
		t.Fatalf("raised %d alerts, want at least %d", raised, 1+flood)
	}

	// Let the consumer drain: the in-flight alert plus the kept ones
	// arrive, no more.
	w.release()
	wantDelivered := 1 + alertLogSize
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
		t.Errorf("delivered %d alerts, want exactly %d (1 in flight + %d kept)",
			len(lines), wantDelivered, alertLogSize)
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
	dropped := counterSum(t, ts, "xydiffd_alert_stream_dropped_total")
	if want := int64(raised - wantDelivered); dropped != want {
		t.Errorf("dropped = %d, want %d (raised %d, delivered %d)", dropped, want, raised, wantDelivered)
	}
}

// TestAlertStreamIgnoresOtherDocuments: a stalled stream of a quiet
// document keeps its own alerts while a busy document raises many more.
// The busy document's alerts are in its own log, which the quiet stream
// never reads, so none of them is delivered or counted as its loss.
func TestAlertStreamIgnoresOtherDocuments(t *testing.T) {
	s, ts := newTestServer(t, Config{})
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
	if d := counterSum(t, ts, "xydiffd_alert_stream_dropped_total"); d != 0 {
		t.Errorf("dropped = %d, want 0: b's alerts are not the q stream's loss", d)
	}
}

// openIdleStreams opens one stream per document id, each with a
// consumer that never reads, and returns once every stream waits for
// its document's log to grow. end cancels them all and returns once
// every handler has returned.
func openIdleStreams(t testing.TB, s *Server, ids []string) (end func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var handlers sync.WaitGroup
	for _, id := range ids {
		req := httptest.NewRequest("GET", "/docs/"+id+"/alerts?follow=30s", nil).WithContext(ctx)
		handlers.Add(1)
		go func() {
			defer handlers.Done()
			s.Handler().ServeHTTP(newGatedWriter(), req)
		}()
	}
	end = func() {
		cancel()
		handlers.Wait()
	}
	waiting := func() int {
		s.alertLog.mu.Lock()
		defer s.alertLog.mu.Unlock()
		n := 0
		for _, id := range ids {
			if d := s.alertLog.byDoc[id]; d != nil && d.grown != nil {
				n++
			}
		}
		return n
	}
	for deadline := time.Now().Add(10 * time.Second); waiting() < len(ids); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			end()
			t.Fatalf("%d of %d streams wait on their log", waiting(), len(ids))
		}
	}
	return end
}

func docIDs(prefix string, n int) []string {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprint(prefix, i)
	}
	return ids
}

// TestAlertStreamsLeaveNoState: a stream of a document that has no
// alerts holds log state only while it is open.
func TestAlertStreamsLeaveNoState(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	ids := docIDs("ghost-", 1000)
	end := openIdleStreams(t, s, ids)
	end()
	s.alertLog.mu.Lock()
	defer s.alertLog.mu.Unlock()
	if n := len(s.alertLog.byDoc); n != 0 {
		t.Errorf("the log holds state for %d documents after every stream ended, want 0", n)
	}
}

// TestAlertDeliveryIgnoresOtherStreams: delivering a document's alerts
// costs the same with 200 streams open on other documents as with none,
// and wakes none of them.
func TestAlertDeliveryIgnoresOtherStreams(t *testing.T) {
	s, o := observeFixture(t, 4)
	// Fill the document's log to its bound first, so that no measured
	// run grows its array.
	for i := 0; i < alertLogSize; i++ {
		s.observe(o)
	}
	alone := testing.AllocsPerRun(20, func() { s.observe(o) })

	ids := docIDs("other-", 200)
	end := openIdleStreams(t, s, ids)
	defer end()
	waits := make([]chan struct{}, len(ids))
	s.alertLog.mu.Lock()
	for i, id := range ids {
		waits[i] = s.alertLog.byDoc[id].grown
	}
	s.alertLog.mu.Unlock()
	crowded := testing.AllocsPerRun(20, func() { s.observe(o) })
	if crowded > alone {
		t.Errorf("observe allocates %.0f times with %d streams open on other documents, %.0f with none", crowded, len(ids), alone)
	}
	woken := 0
	for _, c := range waits {
		select {
		case <-c:
			woken++
		default:
		}
	}
	if woken > 0 {
		t.Errorf("delivering one document's alerts woke %d streams of other documents", woken)
	}
}

// BenchmarkObserveWithOpenStreams times the PUT tail of one 150 KB
// catalog version whose delta raises about 1 200 alerts, with 0, 100
// and 1 000 idle streams open on other documents. Delivery reaches only
// the changed document's streams, so the three should cost the same.
func BenchmarkObserveWithOpenStreams(b *testing.B) {
	oldDoc := changesim.CatalogOfSize(rand.New(rand.NewSource(601)), 150_000)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.1, 7))
	if err != nil {
		b.Fatal(err)
	}
	r, err := diff.DiffDetailed(oldDoc, sim.New, diff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	o := vstore.Observation{ID: "catalog", Version: 2, Old: oldDoc, New: sim.New, Result: r, DeltaBytes: r.Delta.Size()}
	for _, streams := range []int{0, 100, 1000} {
		b.Run(fmt.Sprint("streams=", streams), func(b *testing.B) {
			s := New(memoryStore(b), Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
			defer s.Close()
			s.Alerter().Subscribe(alert.Subscription{ID: "all"})
			end := openIdleStreams(b, s, docIDs("other-", streams))
			defer end()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.observe(o)
			}
			b.StopTimer()
			b.ReportMetric(float64(s.metrics.snapshot().alerts)/float64(b.N), "alerts/op")
		})
	}
}

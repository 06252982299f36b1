package crawl

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xydiff/internal/retry"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// memIngester is a pipeline stand-in: "changed" means the body differs
// from the previous one for the same doc — exactly the contract the
// store's diff provides, without the parse/diff cost.
type memIngester struct {
	mu    sync.Mutex
	calls map[string]int
	last  map[string][]byte
}

func newMemIngester() *memIngester {
	return &memIngester{calls: make(map[string]int), last: make(map[string][]byte)}
}

func (m *memIngester) ingest(ctx context.Context, id string, body []byte) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calls[id]++
	changed := !bytes.Equal(m.last[id], body)
	m.last[id] = append([]byte(nil), body...)
	return changed, nil
}

func (m *memIngester) callCount(id string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls[id]
}

func (m *memIngester) lastBody(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return string(m.last[id])
}

// startCrawler runs c until the returned stop function is called.
func startCrawler(t *testing.T, c *Crawler) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := c.Run(ctx); err != nil {
			t.Errorf("crawler run: %v", err)
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestAdaptiveScheduleFastVsStatic is the acceptance scenario: of two
// sources, one changes on every fetch and one never does. The adaptive
// scheduler must poll the fast one at least factor× as often, and the
// static one's interval must converge to MaxInterval.
func TestAdaptiveScheduleFastVsStatic(t *testing.T) {
	var fastN atomic.Int64
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// A fresh body on every GET, no validators: every visit changes.
		n := fastN.Add(1)
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprintf(w, "<doc><n>%d</n></doc>", n)
	}))
	defer fast.Close()
	staticBody := `<doc><v>immutable</v></doc>`
	static := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("ETag", `"static-1"`)
		if r.Header.Get("If-None-Match") == `"static-1"` {
			w.WriteHeader(http.StatusNotModified)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, staticBody)
	}))
	defer static.Close()

	const factor = 3
	ing := newMemIngester()
	cfg := Config{
		MinInterval: 20 * time.Millisecond,
		MaxInterval: 320 * time.Millisecond,
		concurrency: 2,
		perHost:     -1,
		Logger:      quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "fast", URL: fast.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Add(Source{ID: "static", URL: static.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	time.Sleep(2500 * time.Millisecond)
	stop()

	fastSrc, _ := c.reg.Get("fast")
	staticSrc, _ := c.reg.Get("static")
	if fastSrc.Fetches == 0 || staticSrc.Fetches == 0 {
		t.Fatalf("no fetches: fast=%d static=%d", fastSrc.Fetches, staticSrc.Fetches)
	}
	if fastSrc.Fetches < factor*staticSrc.Fetches {
		t.Errorf("fast source fetched %d times, static %d: want at least %d×",
			fastSrc.Fetches, staticSrc.Fetches, factor)
	}
	// The static source converged to the interval ceiling (±10% jitter).
	if staticSrc.Interval < time.Duration(0.7*float64(cfg.MaxInterval)) {
		t.Errorf("static interval = %v, want near MaxInterval %v", staticSrc.Interval, cfg.MaxInterval)
	}
	if staticSrc.ChangeRate > 0.2 {
		t.Errorf("static change rate = %v, want near 0", staticSrc.ChangeRate)
	}
	if fastSrc.ChangeRate < 0.8 {
		t.Errorf("fast change rate = %v, want near 1", fastSrc.ChangeRate)
	}
	// Conditional GET did its job on the static source: exactly one
	// ingest (the first 200), everything after a 304.
	if got := ing.callCount("static"); got != 1 {
		t.Errorf("static ingested %d times, want 1 (304s must bypass ingest)", got)
	}
	if staticSrc.NotModified == 0 {
		t.Error("static source never answered 304")
	}
}

// TestRobustnessBackoffCircuitAndRecovery is the second acceptance
// scenario: an origin emitting 5xx bursts triggers retries and backoff,
// persistent failure opens the circuit (visible in metrics), and
// recovery closes it again.
func TestRobustnessBackoffCircuitAndRecovery(t *testing.T) {
	var healthy atomic.Bool
	var hits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		if !healthy.Load() {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, "<doc><v>recovered</v></doc>")
	}))
	defer origin.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval:  10 * time.Millisecond,
		MaxInterval:  50 * time.Millisecond,
		concurrency:  1,
		perHost:      -1,
		timeout:      time.Second,
		attempts:     2,
		circuitAfter: 2,
		cooldown:     120 * time.Millisecond,
		backoff:      retry.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Logger:       quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "flaky", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	defer stop()

	// Phase 1: the origin fails; the circuit must open.
	waitFor(t, 5*time.Second, "circuit to open", func() bool {
		s := c.Metrics().Snapshot()
		return s.CircuitOpens >= 1 && s.OpenCircuits == 1
	})
	snap := c.Metrics().Snapshot()
	if snap.Retries == 0 {
		t.Errorf("no in-cycle retries recorded before the circuit opened")
	}
	if snap.Failures < int64(cfg.circuitAfter) {
		t.Errorf("failures = %d, want >= %d", snap.Failures, cfg.circuitAfter)
	}
	src, _ := c.reg.Get("flaky")
	if !src.CircuitOpen(time.Now()) {
		t.Error("source status does not show an open circuit")
	}
	// While open, the source is parked: the hit counter must go quiet.
	before := hits.Load()
	time.Sleep(60 * time.Millisecond) // well inside the cooldown
	if after := hits.Load(); after != before {
		t.Errorf("origin hit %d times while the circuit was open", after-before)
	}

	// Phase 2: the origin recovers; the cooldown probe must close the
	// circuit and resume normal fetching.
	healthy.Store(true)
	waitFor(t, 5*time.Second, "circuit to close", func() bool {
		s := c.Metrics().Snapshot()
		src, ok := c.reg.Get("flaky")
		return ok && s.OpenCircuits == 0 && src.Failures == 0 && src.Fetches >= 1
	})
	if got := ing.callCount("flaky"); got == 0 {
		t.Error("recovered source never ingested")
	}
}

// TestHangingOriginTimesOut: a handler that sleeps past the fetch timeout
// must surface as a transient failure, not a stuck worker.
func TestHangingOriginTimesOut(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer origin.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval:  10 * time.Millisecond,
		MaxInterval:  50 * time.Millisecond,
		concurrency:  1,
		perHost:      -1,
		timeout:      30 * time.Millisecond,
		attempts:     1,
		circuitAfter: 100, // keep the circuit out of this test
		backoff:      retry.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Logger:       quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "hang", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	defer stop()
	waitFor(t, 5*time.Second, "timeout failures", func() bool {
		return c.Metrics().Snapshot().Failures >= 2
	})
	if got := ing.callCount("hang"); got != 0 {
		t.Errorf("hanging origin ingested %d times, want 0", got)
	}
}

// TestTruncatedBodyIsTransient: a response shorter than its declared
// Content-Length is retried, and once the origin heals the document is
// ingested.
func TestTruncatedBodyIsTransient(t *testing.T) {
	const body = "<doc><v>whole</v></doc>"
	var healthy atomic.Bool
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if healthy.Load() {
			w.Header().Set("Content-Type", "application/xml")
			fmt.Fprint(w, body)
			return
		}
		// Hijack so we can lie about Content-Length and cut the body.
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Length: %d\r\nContent-Type: application/xml\r\n\r\n<doc>", len(body)+64)
		if err := buf.Flush(); err != nil {
			t.Logf("flush truncated response: %v", err)
		}
		if err := conn.Close(); err != nil {
			t.Logf("close hijacked conn: %v", err)
		}
	}))
	defer origin.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval:  10 * time.Millisecond,
		MaxInterval:  50 * time.Millisecond,
		concurrency:  1,
		perHost:      -1,
		timeout:      time.Second,
		attempts:     2,
		circuitAfter: 100,
		backoff:      retry.Policy{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Logger:       quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "cut", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	defer stop()
	waitFor(t, 5*time.Second, "truncation retries", func() bool {
		return c.Metrics().Snapshot().Retries >= 1
	})
	if got := ing.callCount("cut"); got != 0 {
		t.Errorf("truncated body reached the ingester %d times", got)
	}
	healthy.Store(true)
	waitFor(t, 5*time.Second, "recovery ingest", func() bool {
		return ing.callCount("cut") >= 1
	})
	if m := ing.lastBody("cut"); m != body {
		t.Errorf("ingested body = %q, want %q", m, body)
	}
}

// TestRemoveStopsFetching: deleting a source drains it from the
// schedule even though the heap uses lazy deletion.
func TestRemoveStopsFetching(t *testing.T) {
	var hits atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		fmt.Fprintf(w, "<doc><n>%d</n></doc>", hits.Load())
	}))
	defer origin.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval: 10 * time.Millisecond,
		MaxInterval: 20 * time.Millisecond,
		concurrency: 1,
		perHost:     -1,
		Logger:      quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "doomed", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	defer stop()
	waitFor(t, 5*time.Second, "first fetches", func() bool { return hits.Load() >= 2 })
	if ok, err := c.reg.Remove("doomed"); !ok || err != nil {
		t.Fatalf("remove = %v, %v; want true, nil", ok, err)
	}
	// Let any in-flight fetch land, then the counter must freeze.
	time.Sleep(50 * time.Millisecond)
	before := hits.Load()
	time.Sleep(150 * time.Millisecond)
	if after := hits.Load(); after != before {
		t.Errorf("removed source fetched %d more times", after-before)
	}
	if c.Metrics().Snapshot().Sources != 0 {
		t.Errorf("sources gauge = %d after removal", c.Metrics().Snapshot().Sources)
	}
}

// TestRegistryPersistenceRoundTrip: learned schedule state survives
// Save/OpenRegistry, so a restarted crawler resumes where it left off.
func TestRegistryPersistenceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sources.json")
	reg, err := OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Len() != 0 {
		t.Fatalf("fresh registry has %d sources", reg.Len())
	}
	next := time.Now().Add(42 * time.Second).UTC().Truncate(time.Millisecond)
	if _, err := reg.Add(Source{
		ID: "a", URL: "http://origin.example/a",
		Interval: 17 * time.Second, NextFetch: next,
		ETag: `"v3"`, LastModified: "Tue, 26 Feb 2002 00:00:00 GMT",
		Fetches: 9, NotModified: 4, Changes: 3, Errors: 1,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Add(Source{ID: "b", URL: "https://origin.example/b"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Save(); err != nil {
		t.Fatal(err)
	}

	re, err := OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("reloaded registry has %d sources, want 2", re.Len())
	}
	a, ok := re.Get("a")
	if !ok {
		t.Fatal("source a missing after reload")
	}
	if a.Interval != 17*time.Second || !a.NextFetch.Equal(next) {
		t.Errorf("schedule state lost: interval=%v next=%v", a.Interval, a.NextFetch)
	}
	if a.ETag != `"v3"` || a.LastModified == "" {
		t.Errorf("validators lost: etag=%q lastModified=%q", a.ETag, a.LastModified)
	}
	if a.Fetches != 9 || a.NotModified != 4 || a.Changes != 3 || a.Errors != 1 {
		t.Errorf("counters lost: %+v", a)
	}
}

// TestRegistryRejectsBadSources: validation covers the ways a source
// can be malformed.
func TestRegistryRejectsBadSources(t *testing.T) {
	reg := NewRegistry()
	for _, src := range []Source{
		{ID: "", URL: "http://ok.example/x"},
		{ID: "x", URL: "ftp://nope.example/x"},
		{ID: "x", URL: "http://"},
		{ID: "x", URL: "::not a url"},
	} {
		if _, err := reg.Add(src); err == nil {
			t.Errorf("Add(%+v) accepted an invalid source", src)
		}
	}
	if reg.Len() != 0 {
		t.Errorf("invalid sources were stored: %d", reg.Len())
	}
}

// TestPerHostSpacingIsHonored: two sources on one host with a per-host
// interval cannot be fetched closer together than that interval.
func TestPerHostSpacingIsHonored(t *testing.T) {
	var mu sync.Mutex
	var stamps []time.Time
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		stamps = append(stamps, time.Now())
		mu.Unlock()
		fmt.Fprint(w, "<doc/>")
	}))
	defer origin.Close()

	const spacing = 40 * time.Millisecond
	ing := newMemIngester()
	cfg := Config{
		MinInterval: 5 * time.Millisecond,
		MaxInterval: 25 * time.Millisecond,
		concurrency: 4,
		perHost:     spacing,
		Logger:      quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	for _, id := range []string{"p1", "p2", "p3"} {
		if _, err := c.Add(Source{ID: id, URL: origin.URL + "/" + id}); err != nil {
			t.Fatal(err)
		}
	}
	stop := startCrawler(t, c)
	waitFor(t, 5*time.Second, "enough fetches", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(stamps) >= 6
	})
	stop()

	mu.Lock()
	defer mu.Unlock()
	// Allow a small scheduling slop; the reservation math itself is exact.
	const slop = 5 * time.Millisecond
	for i := 1; i < len(stamps); i++ {
		if gap := stamps[i].Sub(stamps[i-1]); gap < spacing-slop {
			t.Errorf("fetches %d and %d only %v apart, want >= %v", i-1, i, gap, spacing)
		}
	}
}

// TestPerHostSpacingCountsFromActualStarts: request A holds the first
// slot on a host and B the next, one interval later, but A starts 15 ms
// late. B must then start a full interval after A's actual start;
// counting from planned slots would start B at its slot, 25 ms after A.
func TestPerHostSpacingCountsFromActualStarts(t *testing.T) {
	const interval = 40 * time.Millisecond
	c := New(NewRegistry(), newMemIngester().ingest, Config{
		perHost: interval,
		Logger:  quietLogger(),
	})
	t0 := time.Unix(1_000_000, 0)
	if wait := c.reserveHost("h", t0); wait != 0 {
		t.Fatalf("A waits %v for the first slot", wait)
	}
	waitB := c.reserveHost("h", t0)
	if waitB != interval {
		t.Fatalf("B waits %v for its slot, want %v", waitB, interval)
	}
	startA := t0.Add(15 * time.Millisecond)
	if wait := c.claimHost("h", startA); wait != 0 {
		t.Fatalf("A, late, is held back %v", wait)
	}
	startB := t0.Add(waitB)
	wait := c.claimHost("h", startB)
	startB = startB.Add(wait)
	if again := c.claimHost("h", startB); again != 0 {
		t.Fatalf("B is held back again %v after waiting %v", again, wait)
	}
	if gap := startB.Sub(startA); gap != interval {
		t.Errorf("B starts %v after A, want %v", gap, interval)
	}
}

package crawl

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/stats"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
	"xydiff/internal/warehouse"
)

// versionRing captures successive versions of one corpus document and
// serves them in rotation, each with its real ETag. Benchmarking
// against the ring instead of a live endlessly-mutating CorpusServer
// keeps the document at its natural size: tens of thousands of
// cumulative simulator mutations would otherwise erode it to a stub and
// the benchmark would measure an empty pipeline.
type versionRing struct {
	mu     sync.Mutex
	i      int
	bodies [][]byte
	etags  []string
}

func newVersionRing(b *testing.B, seed int64, versions int) *versionRing {
	b.Helper()
	origin, err := changesim.ServeCorpus(seed, 1)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()
	path := origin.Paths()[0]
	r := &versionRing{}
	for v := 0; v < versions; v++ {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			b.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		if cerr := resp.Body.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		r.bodies = append(r.bodies, body)
		r.etags = append(r.etags, resp.Header.Get("ETag"))
		if err := origin.Mutate(path); err != nil {
			b.Fatal(err)
		}
	}
	return r
}

// advance moves to the next version so the upcoming GET serves fresh
// content (and a fresh ETag).
func (r *versionRing) advance() {
	r.mu.Lock()
	r.i = (r.i + 1) % len(r.bodies)
	r.mu.Unlock()
}

func (r *versionRing) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	r.mu.Lock()
	body, etag := r.bodies[r.i], r.etags[r.i]
	r.mu.Unlock()
	w.Header().Set("ETag", etag)
	if req.Header.Get("If-None-Match") == etag {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/xml")
	if _, err := w.Write(body); err != nil {
		return // client hung up
	}
}

// BenchmarkCrawlIngest measures a full acquisition round trip — HTTP
// fetch of a mutated document, parse, versioning diff in the store, and
// the consumer pipeline (statistics and alerts) — i.e. the
// per-document cost of one crawler visit when the document HAS changed
// (the expensive path; unchanged visits are a single conditional GET).
func BenchmarkCrawlIngest(b *testing.B) {
	ring := newVersionRing(b, 7, 16)
	ts := httptest.NewServer(ring)
	defer ts.Close()

	st, err := vstore.Open("", diff.Options{}, vstore.Config{})
	if err != nil {
		b.Fatal(err)
	}
	pipeline := warehouse.Pipeline{
		Alerter: alert.New(alert.Subscription{ID: "bench", Path: "Product"}),
		Stats:   stats.NewCollector(),
	}
	st.SetObserver(func(o store.Observation) { pipeline.Observe(o) })
	ingest := func(ctx context.Context, id string, body []byte) (bool, error) {
		doc, err := dom.Parse(bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		v, d, err := st.PutMatcherContext(ctx, id, doc, "")
		if err != nil {
			return false, err
		}
		return v == 1 || (d != nil && !d.Empty()), nil
	}

	cfg := Config{
		MinInterval: time.Millisecond,
		MaxInterval: 2 * time.Millisecond,
		perHost:     -1,
		Logger:      quietLogger(),
	}
	c := New(NewRegistry(), ingest, cfg)
	if _, err := c.Add(Source{ID: "bench", URL: ts.URL + "/doc"}); err != nil {
		b.Fatal(err)
	}

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ring.advance()
		c.fetchCycle(ctx, "bench")
	}
	b.StopTimer()
	snap := c.Metrics().Snapshot()
	if snap.Failures > 0 {
		b.Fatalf("%d fetch cycles failed", snap.Failures)
	}
	b.ReportMetric(float64(snap.FetchedBytes)/float64(b.N), "bytes/doc")
}

// TestConditionalGetSkipRatio measures — and asserts — the payoff of
// HTTP revalidation on a mostly-static corpus: when few documents
// change per revisit cycle, most visits must resolve to a 304 and never
// reach parse or diff. The measured ratio is recorded in EXPERIMENTS.md.
func TestConditionalGetSkipRatio(t *testing.T) {
	const docs = 20
	origin, err := changesim.ServeCorpus(11, docs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval: 20 * time.Millisecond,
		MaxInterval: 60 * time.Millisecond,
		concurrency: 4,
		perHost:     -1,
		Logger:      quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	for i, p := range origin.Paths() {
		if _, err := c.Add(Source{ID: origin.Paths()[i][1:], URL: ts.URL + p}); err != nil {
			t.Fatal(err)
		}
	}

	stop := startCrawler(t, c)
	// Mutate ~5% of the corpus every 100ms: a mostly-static web.
	tickDone := make(chan struct{})
	go func() {
		defer close(tickDone)
		for i := 0; i < 20; i++ {
			time.Sleep(100 * time.Millisecond)
			if _, err := origin.Tick(0.05); err != nil {
				t.Errorf("tick: %v", err)
				return
			}
		}
	}()
	<-tickDone
	stop()

	snap := c.Metrics().Snapshot()
	if snap.Fetches < 2*docs {
		t.Fatalf("only %d fetches in the measurement window", snap.Fetches)
	}
	skip := float64(snap.NotModified) / float64(snap.Fetches)
	t.Logf("skip ratio: %d/%d fetches answered 304 (%.1f%%), %d ingests, %d bytes downloaded",
		snap.NotModified, snap.Fetches, 100*skip, snap.Ingests, snap.FetchedBytes)
	// Every doc costs one initial 200; after that, a mostly-static
	// corpus must be mostly 304s.
	if skip < 0.5 {
		t.Errorf("conditional GET skip ratio = %.2f, want >= 0.5 on a mostly-static corpus", skip)
	}
}

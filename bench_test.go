// System benchmarks: the daemon's ingest path over HTTP, the work a
// PUT does after its diff, chain composition, index maintenance and the
// change simulator. The paper's experiments (Figures 4–6, Section 6.2,
// the baselines, moves and ablations) are benchmarks of internal/bench,
// which run the same functions xybench prints; `make bench` runs both.
package xydiff_test

import (
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"xydiff/internal/alert"
	"xydiff/internal/alloctest"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/server"
	"xydiff/internal/stats"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
)

// preparePair builds a (old, new) document pair of roughly the given
// serialized size with the paper's standard 10% change mix.
func preparePair(b testing.TB, bytes int, seed int64) (*dom.Node, *dom.Node) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, bytes)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed))
	if err != nil {
		b.Fatal(err)
	}
	return oldDoc, sim.New
}

// BenchmarkChangeSimulator measures the experiment generator itself so
// regressions in the harness are visible.
func BenchmarkChangeSimulator(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	doc := changesim.CatalogOfSize(rng, 50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := changesim.Simulate(doc, changesim.Uniform(0.10, int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIndexMaintenance supports the Section 2 "Indexing"
// motivation: maintaining the full-text index from a delta vs
// re-indexing the document.
func BenchmarkIndexMaintenance(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	oldDoc := changesim.Catalog(rng, 10, 40)
	xid.Assign(oldDoc)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.05, 11))
	if err != nil {
		b.Fatal(err)
	}
	d, err := diff.Diff(oldDoc, sim.New, diff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("incremental", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ix := index.New()
			ix.AddDocument("doc", oldDoc)
			b.StartTimer()
			ix.ApplyDelta("doc", d)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix := index.New()
			ix.AddDocument("doc", sim.New)
		}
	})
}

// diffsTotal reads the server's diff count off its /metrics, as an
// operator would: xydiffd_diffs_total summed over matchers.
func diffsTotal(b *testing.B, client *http.Client, url string) int64 {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "xydiffd_diffs_total{"); ok {
			_, v, _ := strings.Cut(rest, "} ")
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				b.Fatalf("/metrics: %q: %v", line, err)
			}
			total += n
		}
	}
	return total
}

// BenchmarkServerPut measures the xydiffd ingest path end to end: an
// HTTP PUT through the handler stack, worker pool, store, diff, and
// delta storage, using a changesim-generated version chain as the
// workload. ns/op is the full per-version install cost as a client
// would see it against a local listener. The sub-benchmarks run a store
// without a directory, then durable stores under the three fsync
// policies — always (an acknowledged version survives kill -9; power
// loss is untested, ROADMAP item 28), interval (bounded loss window,
// amortized fsyncs) and off (OS-paced flushing) — so the durability tax
// on ingest throughput is a measured number, not a guess.
func BenchmarkServerPut(b *testing.B) {
	// Pre-generate a chain of versions so the loop measures only the
	// server, not the simulator.
	rng := rand.New(rand.NewSource(13))
	doc := changesim.CatalogOfSize(rng, 20_000)
	versions := []string{doc.String()}
	for step := 0; step < 8; step++ {
		sim, err := changesim.Simulate(doc, changesim.Uniform(0.10, int64(step)))
		if err != nil {
			b.Fatal(err)
		}
		doc = sim.New
		versions = append(versions, doc.String())
	}

	run := func(b *testing.B, dir string, policy store.SyncPolicy) {
		st, err := vstore.Open(dir, diff.Options{}, vstore.Config{Sync: policy})
		if err != nil {
			b.Fatal(err)
		}
		defer st.Close()
		srv := server.New(st, server.Config{
			Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
		})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := ts.Client()

		b.SetBytes(int64(len(versions[0])))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			body := versions[i%len(versions)]
			req, err := http.NewRequest("PUT", ts.URL+"/docs/bench", strings.NewReader(body))
			if err != nil {
				b.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				b.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode >= 300 {
				b.Fatalf("PUT: %d", resp.StatusCode)
			}
		}
		b.StopTimer()
		ds := st.DurabilityStats()
		b.ReportMetric(float64(diffsTotal(b, client, ts.URL))/float64(b.N), "diffs/op")
		b.ReportMetric(float64(ds.Syncs)/float64(b.N), "fsyncs/op")
		b.ReportMetric(float64(ds.AppendedBytes)/float64(b.N), "journalB/op")
	}
	b.Run("memory", func(b *testing.B) { run(b, "", store.SyncAlways) })
	for _, name := range []string{"always", "interval", "off"} {
		policy, err := store.ParseSyncPolicy(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) { run(b, b.TempDir(), policy) })
	}
}

// BenchmarkDeltaCompose measures chain aggregation (Section 4's delta
// algebra): composing a week of deltas into one.
func BenchmarkDeltaCompose(b *testing.B) {
	rng := rand.New(rand.NewSource(12))
	base := changesim.Catalog(rng, 4, 20)
	cur := base
	var chain []*delta.Delta
	for step := 0; step < 5; step++ {
		sim, err := changesim.Simulate(cur, changesim.Uniform(0.05, int64(step)))
		if err != nil {
			b.Fatal(err)
		}
		d, err := diff.Diff(cur, sim.New, diff.Options{})
		if err != nil {
			b.Fatal(err)
		}
		chain = append(chain, d)
		cur = sim.New
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := diff.Compose(base, chain...); err != nil {
			b.Fatal(err)
		}
	}
}

// putTailFixture is BenchmarkPutTail's PUT: a pair shaped like the
// end-to-end benchmark's ingest_large workload (~150 KB catalog, 10%
// churn), its diff, and that workload's eight subscriptions.
func putTailFixture(tb testing.TB) (oldDoc, newDoc *dom.Node, r *diff.Result, subs []alert.Subscription) {
	oldDoc, newDoc = preparePair(tb, 130_000, 1)
	r, err := diff.DiffDetailed(oldDoc, newDoc, diff.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	return oldDoc, newDoc, r, []alert.Subscription{
		{ID: "k-insert", Kinds: []delta.Kind{delta.KindInsert}},
		{ID: "k-delete", Kinds: []delta.Kind{delta.KindDelete}},
		{ID: "k-update", Kinds: []delta.Kind{delta.KindUpdate}},
		{ID: "k-move", Kinds: []delta.Kind{delta.KindMove}},
		{ID: "p-0", Path: "Category/Product"},
		{ID: "p-1", Path: "Product/Price"},
		{ID: "q-0", Query: xpathlite.MustCompile(`//Product[Price>500]`), Kinds: []delta.Kind{delta.KindUpdateAttr}},
		{ID: "q-1", Query: xpathlite.MustCompile(`//Product[@status='sale']`), Kinds: []delta.Kind{delta.KindInsertAttr}},
	}
}

// TestPutTailAlertListAllocatedOnce is the bytes guard on the alerter's
// part of BenchmarkPutTail: NotifyResolved allocates its list of alerts
// once, at its final length. The list is the one thing it allocates
// that follows how many subscriptions an operation matches — paths are
// rendered once per operation, match sets once per query and version —
// so a second copy of the six kind and path subscriptions must add the
// bytes of the alerts it adds and no more: one list of the final size,
// where append's growth (from room for one alert per remaining
// operation) cost about twice that.
func TestPutTailAlertListAllocatedOnce(t *testing.T) {
	oldDoc, newDoc, r, subs := putTailFixture(t)
	targets := delta.Resolve(r.Delta, oldDoc, newDoc)
	twice := append([]alert.Subscription(nil), subs...)
	for _, sub := range subs {
		if sub.Query == nil {
			sub.ID += "-again"
			twice = append(twice, sub)
		}
	}
	notify := func(subs []alert.Subscription) (alerts int, notify func()) {
		a := alert.New(subs...)
		list := a.NotifyResolved("catalog", 2, targets)
		if cap(list) != len(list) {
			t.Fatalf("%d alerts in a list of capacity %d", len(list), cap(list))
		}
		return len(list), func() { a.NotifyResolved("catalog", 2, targets) }
	}
	n, once := notify(subs)
	n2, again := notify(twice)
	if n < 100 || n2 <= n {
		t.Fatalf("%d alerts, %d with the subscriptions doubled: the fixture exercises too little", n, n2)
	}
	_, bytes := alloctest.Cost(t, 10, once)
	_, bytes2 := alloctest.Cost(t, 10, again)
	added := float64((n2 - n) * int(unsafe.Sizeof(alert.Alert{})))
	// A large object is rounded up to whole 8 KiB pages.
	const rounding = 8 << 10
	t.Logf("%d alerts: %.1f KB; %d alerts: %.1f KB; the %d added alerts take %.1f KB",
		n, bytes/1024, n2, bytes2/1024, n2-n, added/1024)
	if bytes2-bytes > added+rounding {
		t.Errorf("%d more alerts cost %.1f KB more, want at most their %.1f KB and %d KB of rounding: the list is not allocated once",
			n2-n, (bytes2-bytes)/1024, added/1024, rounding>>10)
	}
}

// BenchmarkPutTail is everything a PUT does once BULD has finished, on
// putTailFixture's PUT: encode the delta once, resolve its operations
// once, then the statistics collector and the alerter.
func BenchmarkPutTail(b *testing.B) {
	oldDoc, newDoc, r, subs := putTailFixture(b)
	a := alert.New(subs...)
	c := stats.NewCollector()
	alerts, size := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, err := r.Delta.MarshalText()
		if err != nil {
			b.Fatal(err)
		}
		t := delta.Resolve(r.Delta, oldDoc, newDoc)
		c.ObserveResolved(t, len(body))
		alerts, size = len(a.NotifyResolved("catalog", 2, t)), len(body)
	}
	b.ReportMetric(float64(len(r.Delta.Ops)), "ops")
	b.ReportMetric(float64(alerts), "alerts")
	b.ReportMetric(float64(size), "delta-bytes")
}

// Benchmarks regenerating the paper's tables and figures. Each bench
// mirrors one experiment of Section 6 (see DESIGN.md's experiment
// index); custom metrics carry the quantities the figures plot, so a
// plain `go test -bench=. -benchmem` reproduces every series. The
// xybench command prints the same data as tables.
package xydiff_test

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/alert"
	"xydiff/internal/baseline"
	"xydiff/internal/bench"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/index"
	"xydiff/internal/server"
	"xydiff/internal/stats"
	"xydiff/internal/store"
	"xydiff/internal/textdiff"
	"xydiff/internal/vstore"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
)

// preparePair builds a (old, new) document pair of roughly the given
// serialized size with the paper's standard 10% change mix.
func preparePair(b *testing.B, bytes int, seed int64) (*dom.Node, *dom.Node) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	oldDoc := changesim.CatalogOfSize(rng, bytes)
	sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, seed))
	if err != nil {
		b.Fatal(err)
	}
	return oldDoc, sim.New
}

// BenchmarkFig4_PhaseTimes is Figure 4: per-phase time across document
// sizes. The phases are reported as custom metrics (ns per phase per
// diff) alongside the standard ns/op for the whole diff.
func BenchmarkFig4_PhaseTimes(b *testing.B) {
	for _, size := range []int{1_000, 10_000, 100_000, 1_000_000} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			oldDoc, newDoc := preparePair(b, size, 4)
			var p12, p3, p4, p5 int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := diff.DiffDetailed(oldDoc.Clone(), newDoc.Clone(), diff.Options{})
				if err != nil {
					b.Fatal(err)
				}
				p12 += (r.Timings.Phase1 + r.Timings.Phase2).Nanoseconds()
				p3 += r.Timings.Phase3.Nanoseconds()
				p4 += r.Timings.Phase4.Nanoseconds()
				p5 += r.Timings.Phase5.Nanoseconds()
			}
			n := float64(b.N)
			b.ReportMetric(float64(p12)/n, "ns/phase1+2")
			b.ReportMetric(float64(p3)/n, "ns/phase3")
			b.ReportMetric(float64(p4)/n, "ns/phase4")
			b.ReportMetric(float64(p5)/n, "ns/phase5")
		})
	}
}

// BenchmarkFig5_Quality is Figure 5: size of the computed delta
// relative to the change simulator's perfect delta, across change
// rates. The ratio is the figure's y-axis.
func BenchmarkFig5_Quality(b *testing.B) {
	for _, rate := range []float64{0.05, 0.10, 0.30, 0.50} {
		b.Run(fmt.Sprintf("rate=%.2f", rate), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			oldDoc := changesim.CatalogOfSize(rng, 30_000)
			sim, err := changesim.Simulate(oldDoc, changesim.Uniform(rate, 5))
			if err != nil {
				b.Fatal(err)
			}
			perfect := sim.Perfect.Size()
			var computed int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
				if err != nil {
					b.Fatal(err)
				}
				computed = d.Size()
			}
			b.ReportMetric(float64(computed), "deltaB")
			b.ReportMetric(float64(perfect), "perfectB")
			b.ReportMetric(float64(computed)/float64(perfect), "ratio")
		})
	}
}

// BenchmarkFig6_UnixDiffRatio is Figure 6: delta size over Unix diff
// size on web-like documents of increasing size.
func BenchmarkFig6_UnixDiffRatio(b *testing.B) {
	for _, size := range []int{2_000, 20_000, 200_000} {
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			oldDoc, newDoc := preparePair(b, size, 6)
			oldText, newText := pretty(oldDoc.String()), pretty(newDoc.String())
			var ratio float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), diff.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if unix := textdiff.Size(oldText, newText); unix > 0 {
					ratio = float64(d.Size()) / float64(unix)
				}
			}
			b.ReportMetric(ratio, "delta/unixdiff")
		})
	}
}

// BenchmarkSiteSnapshot is the Section 6.2 experiment: diffing two
// snapshots of a whole web site. The default page count keeps the bench
// quick; xybench -full site runs the paper's 14000-page scale.
func BenchmarkSiteSnapshot(b *testing.B) {
	oldDoc, newDoc, err := changesim.SiteSnapshotPair(7, 2_000)
	if err != nil {
		b.Fatal(err)
	}
	size := len(oldDoc.String())
	var coreNS int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := diff.DiffDetailed(oldDoc.Clone(), newDoc.Clone(), diff.Options{})
		if err != nil {
			b.Fatal(err)
		}
		coreNS += (r.Timings.Phase3 + r.Timings.Phase4).Nanoseconds()
	}
	b.ReportMetric(float64(size), "docB")
	b.ReportMetric(float64(coreNS)/float64(b.N), "ns/core")
}

// BenchmarkVsBaselines is the state-of-the-art comparison (Section 3):
// BULD against the Selkow-variant tree edit distance, the LaDiff-style
// matcher, and the DiffMK-style list diff, at growing node counts. The
// ns/op curves exhibit the quasi-linear vs quadratic split the paper
// argues.
func BenchmarkVsBaselines(b *testing.B) {
	for _, nodes := range []int{200, 1_000, 4_000} {
		rng := rand.New(rand.NewSource(int64(nodes)))
		oldDoc := changesim.Generic(rng, nodes, 8, 6)
		sim, err := changesim.Simulate(oldDoc, changesim.Uniform(0.10, int64(nodes)))
		if err != nil {
			b.Fatal(err)
		}
		newDoc := sim.New
		b.Run(fmt.Sprintf("algo=buld/n=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), diff.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("algo=luselkow/n=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.LuSelkow(oldDoc.Clone(), newDoc.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("algo=ladiff/n=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := baseline.LaDiff(oldDoc.Clone(), newDoc.Clone()); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("algo=diffmk/n=%d", nodes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.DiffMK(oldDoc, newDoc)
			}
		})
	}
}

// BenchmarkMoveQuality isolates move detection (the Section 6.1
// discussion): a move-heavy change mix, with found vs perfect move
// counts as metrics.
func BenchmarkMoveQuality(b *testing.B) {
	for _, prob := range []float64{0.25, 0.75} {
		b.Run(fmt.Sprintf("moveProb=%.2f", prob), func(b *testing.B) {
			rng := rand.New(rand.NewSource(8))
			oldDoc := changesim.CatalogOfSize(rng, 20_000)
			sim, err := changesim.Simulate(oldDoc, changesim.Params{
				DeleteProb: 0.08, UpdateProb: 0.02, InsertProb: 0.08, MoveProb: prob, Seed: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			var found int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d, err := diff.Diff(oldDoc.Clone(), sim.New.Clone(), diff.Options{})
				if err != nil {
					b.Fatal(err)
				}
				found = d.Count().Moves
			}
			b.ReportMetric(float64(found), "moves")
			b.ReportMetric(float64(sim.Perfect.Count().Moves), "perfectMoves")
		})
	}
}

// BenchmarkAblation measures the design-choice variants DESIGN.md calls
// out: lazy vs eager down-propagation, ID attributes on/off, exact vs
// windowed intra-parent LIS, propagation pass count.
func BenchmarkAblation(b *testing.B) {
	oldDoc, newDoc := preparePair(b, 50_000, 9)
	configs := []struct {
		name string
		opts diff.Options
	}{
		{"paper-default", diff.Options{}},
		{"eager-down", diff.Options{EagerDown: true}},
		{"no-id-attrs", diff.Options{DisableIDAttributes: true}},
		{"lis-exact", diff.Options{LISWindow: -1}},
		{"passes-3", diff.Options{PropagationPasses: 3}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				d, err := diff.Diff(oldDoc.Clone(), newDoc.Clone(), cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				size = d.Size()
			}
			b.ReportMetric(float64(size), "deltaB")
		})
	}
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

// BenchmarkHarnessRunners exercises the bench-package runners end to
// end at small scale, keeping xybench's code paths measured and honest.
func BenchmarkHarnessRunners(b *testing.B) {
	b.Run("fig4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bench.Fig4(io.Discard, []int{5_000}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fig5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bench.Fig5(io.Discard, 5_000, []float64{0.1}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fig6", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := bench.Fig6(io.Discard, 3, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func pretty(xml string) string {
	out := make([]byte, 0, len(xml)+len(xml)/8)
	for i := 0; i < len(xml); i++ {
		out = append(out, xml[i])
		if xml[i] == '>' {
			out = append(out, '\n')
		}
	}
	return string(out)
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
// policies — always (an acknowledged version survives power loss),
// interval (bounded loss window, amortized fsyncs) and off (OS-paced
// flushing) — so the durability tax on ingest throughput is a measured
// number, not a guess.
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

// BenchmarkPutTail is everything a PUT does once BULD has finished, on
// a pair shaped like the end-to-end benchmark's ingest_large workload
// (~150 KB catalog, 10% churn, its eight subscriptions): encode the
// delta once, resolve its operations once, then the statistics
// collector and the alerter.
func BenchmarkPutTail(b *testing.B) {
	oldDoc, newDoc := preparePair(b, 130_000, 1)
	r, err := diff.DiffDetailed(oldDoc, newDoc, diff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	a := alert.New(
		alert.Subscription{ID: "k-insert", Kinds: []delta.Kind{delta.KindInsert}},
		alert.Subscription{ID: "k-delete", Kinds: []delta.Kind{delta.KindDelete}},
		alert.Subscription{ID: "k-update", Kinds: []delta.Kind{delta.KindUpdate}},
		alert.Subscription{ID: "k-move", Kinds: []delta.Kind{delta.KindMove}},
		alert.Subscription{ID: "p-0", Path: "Category/Product"},
		alert.Subscription{ID: "p-1", Path: "Product/Price"},
		alert.Subscription{ID: "q-0", Query: xpathlite.MustCompile(`//Product[Price>500]`), Kinds: []delta.Kind{delta.KindUpdateAttr}},
		alert.Subscription{ID: "q-1", Query: xpathlite.MustCompile(`//Product[@status='sale']`), Kinds: []delta.Kind{delta.KindInsertAttr}},
	)
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

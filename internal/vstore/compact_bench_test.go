package vstore

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
)

// BenchmarkCompactAndReopen times the two costs snapshot compression
// adds, both off the request path: the Checkpoint that folds 12
// catalogs of ~150 KB with 11 versions each at 10% churn (the shape of
// the end-to-end benchmark's ingest_large) out of the segments into
// snapshots, and the Open that reads those snapshots back. An
// operation is one of each, reported apart as checkpoint-ms and
// reopen-ms, with the snapshot content files' bytes per byte of the
// XML they hold. Before the checkpoint, every part of the chains is
// decoded, untimed, so that the parts are frames, as a running store's
// are, and the checkpoint renders the XML it writes from them.
// EXPERIMENTS.md records the numbers.
func BenchmarkCompactAndReopen(b *testing.B) {
	const docs, versions = 12, 11
	journal := b.TempDir()
	cfg := Config{Shards: 4, compactSegments: -1}
	s, err := Open(journal, diff.Options{}, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for d := 0; d < docs; d++ {
		doc := changesim.CatalogOfSize(rand.New(rand.NewSource(int64(d+1))), 130000)
		for v := 1; v <= versions; v++ {
			if v > 1 {
				res, err := changesim.Simulate(doc, changesim.Uniform(0.10, int64(100*d+v)))
				if err != nil {
					b.Fatal(err)
				}
				doc = res.New
			}
			if _, _, err := s.Put(fmt.Sprint("catalog-", d), doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		b.Fatal(err)
	}

	var checkpoint, reopen time.Duration
	var stored, raw int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := copyDir(b, journal) // each checkpoint folds the same segments
		s, err := Open(dir, diff.Options{}, cfg)
		if err != nil {
			b.Fatal(err)
		}
		for d := 0; d < docs; d++ {
			st := s.shardFor(fmt.Sprint("catalog-", d)).lookup(fmt.Sprint("catalog-", d))
			// Every part is decoded, as the walks that cross it do.
			if _, err := st.baseTree(); err != nil {
				b.Fatal(err)
			}
			for i, p := range st.deltas {
				if !p.form.Load().frame {
					if _, err := st.delta(i); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
		b.StartTimer()
		start := time.Now()
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		checkpoint += time.Since(start)
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		start = time.Now()
		if s, err = Open(dir, diff.Options{}, cfg); err != nil {
			b.Fatal(err)
		}
		reopen += time.Since(start)
		ss := s.StorageStats()
		stored, raw = ss.SnapshotStoredBytes, ss.SnapshotRawBytes
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(checkpoint.Milliseconds())/float64(b.N), "checkpoint-ms")
	b.ReportMetric(float64(reopen.Microseconds())/1e3/float64(b.N), "reopen-ms")
	b.ReportMetric(float64(stored)/float64(raw), "stored/raw")
}

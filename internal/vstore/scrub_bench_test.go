package vstore

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// BenchmarkScrubPass measures unthrottled verification throughput over
// a mixed corpus (sealed segments + snapshots with checksum manifests):
// the MB/s ceiling an operator trades against foreground IO when
// picking Scrub.Throttle. EXPERIMENTS.md records the measured number.
func BenchmarkScrubPass(b *testing.B) {
	dir := b.TempDir()
	s, err := Open(dir, diff.Options{}, Config{
		Shards:          4,
		segmentBytes:    32 << 10, // rotate often enough to leave sealed segments
		compactSegments: -1,
		Scrub:           ScrubConfig{Throttle: -1},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	filler := strings.Repeat("<i>scrub throughput corpus text</i>", 128)
	put := func(id string, v int) {
		doc, perr := dom.ParseString(fmt.Sprintf(`<r><v>%d</v>%s</r>`, v, filler))
		if perr != nil {
			b.Fatal(perr)
		}
		if _, _, perr := s.Put(id, doc); perr != nil {
			b.Fatal(perr)
		}
	}
	for d := 0; d < 32; d++ {
		for v := 1; v <= 4; v++ {
			put(fmt.Sprintf("snap-%02d", d), v)
		}
	}
	if err := s.Checkpoint(); err != nil { // folds the above into snapshots
		b.Fatal(err)
	}
	for d := 0; d < 32; d++ {
		for v := 1; v <= 4; v++ {
			put(fmt.Sprintf("seg-%02d", d), v)
		}
	}

	rep, err := s.ScrubPass(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	if rep.Found != 0 || rep.BytesScanned == 0 {
		b.Fatalf("corpus not clean or empty: %+v", rep)
	}
	b.SetBytes(rep.BytesScanned)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ScrubPass(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

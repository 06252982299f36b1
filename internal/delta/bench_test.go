package delta_test

import (
	"bytes"
	"math/rand"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
)

// BenchmarkDeltaParse decodes a stored delta of the kind every read of
// an old version pays for: a ~150 KB catalog changed at 10% churn,
// diffed, and serialized as the store would keep it.
func BenchmarkDeltaParse(b *testing.B) {
	old := changesim.CatalogOfSize(rand.New(rand.NewSource(1)), 130000)
	res, err := changesim.Simulate(old, changesim.Uniform(0.10, 2))
	if err != nil {
		b.Fatal(err)
	}
	d, err := diff.Diff(old, res.New, diff.Options{})
	if err != nil {
		b.Fatal(err)
	}
	raw, err := d.MarshalText()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.Parse(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

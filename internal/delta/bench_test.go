package delta_test

import (
	"math/rand"
	"testing"

	"xydiff/internal/alloctest"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
)

// storedDelta is a stored delta of the kind every read of an old
// version decodes: a ~150 KB catalog changed at 10% churn, diffed, and
// serialized as the store keeps it (~124 KB).
func storedDelta(tb testing.TB) []byte {
	old := changesim.CatalogOfSize(rand.New(rand.NewSource(1)), 130000)
	res, err := changesim.Simulate(old, changesim.Uniform(0.10, 2))
	if err != nil {
		tb.Fatal(err)
	}
	d, err := diff.Diff(old, res.New, diff.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	raw, err := d.MarshalText()
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// BenchmarkDeltaParse decodes storedDelta from the bytes, as the store
// does.
func BenchmarkDeltaParse(b *testing.B) {
	raw := storedDelta(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := delta.ParseBytes(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDeltaDecodeAllocations keeps the delta document from being built
// again: decoding storedDelta allocates for the content of its inserts
// and deletes and for its ops, not for the op elements around them.
// (Building the document and walking it cost 15 941; the token decoder
// 5 421 with a boxed op and an XID map per insert and delete; 4 322
// with the ops one slab and the maps stamped and dropped; 1 557 with
// the subtrees' nodes, child slices and attributes cut from the
// parser's chunks.) A count, not a timing, so it can gate go test.
func TestDeltaDecodeAllocations(t *testing.T) {
	raw := storedDelta(t)
	allocs, _ := alloctest.Cost(t, 10, func() {
		if _, err := delta.ParseBytes(raw); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("decoding a %d-byte delta: %.0f allocations", len(raw), allocs)
	if allocs > 1640 {
		t.Errorf("decoding a %d-byte delta allocates %.0f times, want at most 1640", len(raw), allocs)
	}
}

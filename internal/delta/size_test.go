package delta_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"unsafe"

	"xydiff/internal/alloctest"
	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
)

// TestSizeCountsWithoutAllocating: Size is the length of MarshalText,
// counted with nothing allocated, over the golden deltas and a stored
// delta of the ingest_large kind.
func TestSizeCountsWithoutAllocating(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "golden", "*.delta.xml"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden deltas: %v", err)
	}
	raws := [][]byte{storedDelta(t)}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raws = append(raws, raw)
	}
	var ds []*delta.Delta
	for i, raw := range raws {
		d, err := delta.ParseBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		text, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		if d.Size() != len(text) {
			t.Errorf("delta %d: Size() = %d, MarshalText has %d bytes", i, d.Size(), len(text))
		}
		ds = append(ds, d)
	}
	for i, d := range ds {
		if allocs, _ := alloctest.Cost(t, 10, func() { d.Size() }); allocs != 0 {
			t.Errorf("delta %d: Size() allocates %.0f times, want 0", i, allocs)
		}
	}
}

// writeCounter counts the writes it is handed and their bytes.
type writeCounter struct{ writes, bytes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	w.bytes += len(p)
	return len(p), nil
}

// TestWriteToWritesWholeBuffers: a ~230 KB delta, the size of an
// ingest_large range reply, reaches its writer in whole 32 KiB
// buffers: at most ⌈n / 32 KiB⌉ + 1 writes.
func TestWriteToWritesWholeBuffers(t *testing.T) {
	old := changesim.CatalogOfSize(rand.New(rand.NewSource(1)), 130000)
	res, err := changesim.Simulate(old, changesim.Uniform(0.25, 2))
	if err != nil {
		t.Fatal(err)
	}
	d, err := diff.Diff(old, res.New, diff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var w writeCounter
	n, err := d.WriteTo(&w)
	if err != nil {
		t.Fatal(err)
	}
	limit := (int(n)+32<<10-1)/(32<<10) + 1
	t.Logf("%d bytes in %d writes", n, w.writes)
	if int(n) != w.bytes || int(n) != d.Size() {
		t.Errorf("WriteTo reports %d bytes, wrote %d, Size() = %d", n, w.bytes, d.Size())
	}
	if w.writes > limit {
		t.Errorf("%d bytes in %d writes, want at most %d", n, w.writes, limit)
	}
}

// TestOpSize pins an op's size. A delta holds its ops in one slab, so a
// field that fattens Op fattens every delta in memory: 96 bytes are a
// Kind, two int32 positions, three int64 XIDs, the subtree pointer and
// three strings, the fields the seven kinds share.
func TestOpSize(t *testing.T) {
	if got := unsafe.Sizeof(delta.Op{}); got != 96 {
		t.Errorf("an Op is %d bytes, want 96", got)
	}
}

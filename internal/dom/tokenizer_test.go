package dom

import (
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"xydiff/internal/alloctest"
)

// TestNameTablesMatchEncodingXML checks nameStart and nameExtra, which
// were derived from encoding/xml's behaviour, against it: every code
// point of the Basic Multilingual Plane, and a sample of the planes
// above (where XML 1.0 fourth edition has no name characters), as the
// first and as a later character of an element name, read by the
// parser.
func TestNameTablesMatchEncodingXML(t *testing.T) {
	accepts := func(src string) bool {
		_, err := xml.NewDecoder(strings.NewReader(src)).Token()
		return err == nil
	}
	step := rune(1)
	for r := rune(0x80); r <= 0x10FFFF; r += step {
		if r == 0x10000 {
			step = 0x101
		}
		if r >= 0xD800 && r < 0xE000 {
			continue // surrogates have no UTF-8 form
		}
		for _, name := range []string{string(r), "a" + string(r)} {
			_, err := ParseString("<" + name + "/>")
			if got, want := err == nil, accepts("<"+name+"/>"); got != want {
				t.Errorf("name %q (%U): ParseString accepts %v, encoding/xml %v", name, r, got, want)
			}
		}
	}
}

type readerFailure struct{ at int }

func (e *readerFailure) Error() string { return "reader failed" }

// TestParseReadsOnceUpToTheLimit covers the reader entry point: input
// arriving in pieces from a reader of unknown length, MaxBytes met
// exactly and exceeded by one, and a reader's own error (what an
// http.MaxBytesReader returns) reaching the caller through errors.As.
func TestParseReadsOnceUpToTheLimit(t *testing.T) {
	const src = `<r><p k="v">hello</p><!--c--></r>`
	opts := DefaultParseOptions()
	want, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int64{0, int64(len(src)), int64(len(src)) + 1} {
		opts.Limits.maxBytes = limit
		got, err := ParseWithOptions(iotest.OneByteReader(strings.NewReader(src)), opts)
		if err != nil || !Equal(got, want) {
			t.Errorf("MaxBytes %d, one byte at a time: %v", limit, err)
		}
	}
	opts.Limits.maxBytes = int64(len(src)) - 1
	for _, r := range []io.Reader{strings.NewReader(src), iotest.OneByteReader(strings.NewReader(src))} {
		var le *LimitError
		if _, err := ParseWithOptions(r, opts); !errors.As(err, &le) || le.What != "bytes" || le.limit != opts.Limits.maxBytes {
			t.Errorf("one byte over MaxBytes: %v", err)
		}
	}
	failing := io.MultiReader(strings.NewReader(src[:10]), iotest.ErrReader(&readerFailure{at: 10}))
	var rf *readerFailure
	if _, err := ParseWithOptions(failing, DefaultParseOptions()); !errors.As(err, &rf) || rf.at != 10 {
		t.Errorf("reader error did not reach the caller: %v", err)
	}
}

// hinted is a reader that claims n bytes as Len, whatever it holds.
type hinted struct {
	io.Reader
	n int
}

func (h hinted) Len() int { return h.n }

// TestReadInputSizesArrivingInput: a size hint sizes the buffer only
// once input arrives. A reader claiming 64 MiB that ends, or fails,
// before its first byte costs a few bytes; a hint shorter or longer
// than the input reads exactly the input.
func TestReadInputSizesArrivingInput(t *testing.T) {
	const claim = 64 << 20
	const src = `<r><p>hello</p></r>`
	for _, n := range []int{1, len(src) - 1, len(src), len(src) + 1, claim} {
		for _, limit := range []int64{0, int64(len(src))} {
			got, err := readInput(hinted{iotest.OneByteReader(strings.NewReader(src)), n}, limit)
			if err != nil || string(got) != src {
				t.Errorf("hint %d, limit %d: read %q, %v", n, limit, got, err)
			}
		}
	}
	empty := []io.Reader{strings.NewReader(""), iotest.ErrReader(&readerFailure{})}
	for _, r := range empty {
		if src, _ := readInput(hinted{r, claim}, 0); len(src) != 0 {
			t.Fatalf("read %d bytes from an empty reader", len(src))
		}
	}
	for _, r := range empty {
		_, grew := alloctest.Cost(t, 1, func() { readInput(hinted{r, claim}, 0) })
		if grew > 1<<10 {
			t.Fatalf("a reader claiming %d bytes and holding none (%T) allocated %.0f bytes", claim, r, grew)
		}
	}
}

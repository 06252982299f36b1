package dom

import (
	"encoding/xml"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"
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
		opts.Limits.MaxBytes = limit
		got, err := ParseWithOptions(iotest.OneByteReader(strings.NewReader(src)), opts)
		if err != nil || !Equal(got, want) {
			t.Errorf("MaxBytes %d, one byte at a time: %v", limit, err)
		}
	}
	opts.Limits.MaxBytes = int64(len(src)) - 1
	for _, r := range []io.Reader{strings.NewReader(src), iotest.OneByteReader(strings.NewReader(src))} {
		var le *LimitError
		if _, err := ParseWithOptions(r, opts); !errors.As(err, &le) || le.What != "bytes" || le.Limit != opts.Limits.MaxBytes {
			t.Errorf("one byte over MaxBytes: %v", err)
		}
	}
	failing := io.MultiReader(strings.NewReader(src[:10]), iotest.ErrReader(&readerFailure{at: 10}))
	var rf *readerFailure
	if _, err := ParseWithOptions(failing, DefaultParseOptions()); !errors.As(err, &rf) || rf.at != 10 {
		t.Errorf("reader error did not reach the caller: %v", err)
	}
}

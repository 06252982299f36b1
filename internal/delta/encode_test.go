package delta

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// encodeReference is the encoder WriteTo replaced: build the delta's
// document with ToDoc (cloning every subtree), serialize the tree.
func encodeReference(d *Delta) ([]byte, error) {
	doc, err := d.ToDoc()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	_, err = doc.WriteTo(&b)
	return b.Bytes(), err
}

// checkEncoding holds every way of encoding d — WriteTo, MarshalText,
// Size — to the bytes of the reference encoder.
func checkEncoding(t *testing.T, d *Delta) []byte {
	t.Helper()
	want, err := encodeReference(d)
	if err != nil {
		t.Fatalf("reference encoder: %v", err)
	}
	got, err := d.MarshalText()
	if err != nil {
		t.Fatalf("MarshalText: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("streaming encoder differs from ToDoc().WriteTo\n got: %s\nwant: %s", got, want)
	}
	var b bytes.Buffer
	n, err := d.WriteTo(&b)
	if err != nil || n != int64(len(want)) || !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("WriteTo wrote %d bytes (err %v), want the %d reference bytes", n, err, len(want))
	}
	if d.Size() != len(want) {
		t.Fatalf("Size() = %d, the encoding has %d bytes", d.Size(), len(want))
	}
	return got
}

func TestEncoderIdenticalOnGoldenDeltas(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.delta.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden deltas found: %v", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		golden := strings.TrimSuffix(string(raw), "\n")
		d, err := ParseString(golden)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if got := checkEncoding(t, d); string(got) != golden {
			t.Errorf("%s does not re-encode to itself\n got: %s\nwant: %s", f, got, golden)
		}
	}
}

// TestEncoderIdenticalOnAwkwardOps covers what no diff output holds:
// absent and empty subtrees, every character the serializer escapes,
// comments and processing instructions, unsorted attributes inside a
// subtree, a delta without ops, zero and negative numbers.
func TestEncoderIdenticalOnAwkwardOps(t *testing.T) {
	hard := "a<b>&\"c'\n\td"
	sub := dom.NewElement("e")
	sub.Attrs = []dom.Attr{{Name: "z", Value: hard}, {Name: "a", Value: "1"}, {Name: "m", Value: ""}}
	sub.Append(dom.NewText(hard), &dom.Node{Type: dom.Comment, Value: " c "},
		&dom.Node{Type: dom.ProcInst, Name: "pi", Value: "v"}, &dom.Node{Type: dom.ProcInst, Name: "bare"},
		dom.NewElement("empty"))
	xid.Assign(sub)
	deltas := []*Delta{
		{},
		{NextXID: 42},
		{NextXID: -3, Ops: []Op{Move{XID: 1, FromParent: 2, FromPos: 0, ToParent: 3, ToPos: 9}}},
		{Ops: []Op{
			Insert{XID: sub.XID, XIDMap: xid.Of(sub), Parent: 1, Pos: 0, Subtree: sub},
			Delete{XID: 7, Parent: 1, Pos: 3},
			Insert{XID: 8, XIDMap: xidMap(8), Parent: 1, Pos: 1, Subtree: dom.NewText("")},
			Delete{XID: 9, XIDMap: xidMap(9), Parent: 1, Pos: 2, Subtree: dom.NewText(hard)},
			Insert{XID: 10, Parent: 0, Pos: -1, Subtree: dom.NewDocument()},
			Update{XID: 2, Old: "", New: hard},
			Update{XID: 3, Old: hard, New: ""},
			Update{XID: 4},
			InsertAttr{XID: 5, Name: "k", Value: hard},
			DeleteAttr{XID: 5, Name: "ns:k", Old: hard},
			UpdateAttr{XID: 6, Name: "k", Old: hard, New: ""},
		}},
	}
	for _, d := range deltas {
		checkEncoding(t, d)
	}
}

// xidMap is the map of a tree whose post-order carries xs: children
// with the leading XIDs under a root with the last.
func xidMap(xs ...int64) xid.Map {
	root := dom.NewElement("m")
	for _, x := range xs[:len(xs)-1] {
		child := dom.NewElement("c")
		child.XID = x
		root.Append(child)
	}
	root.XID = xs[len(xs)-1]
	return xid.Of(root)
}

type foreignOp struct{}

func (foreignOp) Kind() Kind       { return Kind(200) }
func (foreignOp) TargetXID() int64 { return 1 }

// An op type the package does not know is an error before the first
// byte, as it was when the document was built first.
func TestEncoderRejectsUnknownOpBeforeWriting(t *testing.T) {
	d := &Delta{Ops: []Op{Update{XID: 1, Old: "a", New: "b"}, foreignOp{}}}
	var b bytes.Buffer
	n, err := d.WriteTo(&b)
	if err == nil || n != 0 || b.Len() != 0 {
		t.Fatalf("WriteTo = %d bytes, err %v, buffer %q; want an error and nothing written", n, err, b.String())
	}
	if _, refErr := encodeReference(d); refErr == nil || refErr.Error() != err.Error() {
		t.Errorf("error %q, the reference encoder says %q", err, refErr)
	}
	if d.Size() != 0 {
		t.Errorf("Size of an unencodable delta = %d", d.Size())
	}
}

type failingWriter struct{ after int }

var errSink = errors.New("sink full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, errSink
	}
	return len(p), nil
}

func TestEncoderReportsWriteErrors(t *testing.T) {
	big := dom.NewElement("e")
	big.Append(dom.NewText(strings.Repeat("x", 20000)))
	d := &Delta{Ops: []Op{Insert{XID: 2, XIDMap: xidMap(1, 2), Parent: 1, Subtree: big}}}
	if _, err := d.WriteTo(&failingWriter{after: 5000}); !errors.Is(err, errSink) {
		t.Fatalf("WriteTo into a failing writer: err = %v", err)
	}
}

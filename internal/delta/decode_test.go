package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xydiff/internal/dom"
	"xydiff/internal/xid"
)

// decodeReference decodes src the way ParseBytes did before it read
// tokens: build the whole delta document, then walk it.
func decodeReference(src []byte) (*Delta, error) {
	doc, err := dom.ParseBytes(src, parseOptions())
	if err != nil {
		return nil, err
	}
	return fromDocReference(doc)
}

// expandsHugeMap reports whether decodeReference would expand an xidmap
// too long to allocate: it turned the map into a slice of every XID
// before counting nodes, and an xidmap like "(1-99999999999)" asked for
// hundreds of gigabytes (a negative length, and a panic, once the range
// overflows int).
func expandsHugeMap(src []byte) bool {
	doc, err := dom.ParseBytes(src, parseOptions())
	if err != nil || doc.Root() == nil {
		return false
	}
	for _, e := range doc.Root().Children {
		if s, ok := e.Attribute("xidmap"); ok {
			if m, err := xid.ParseMap(s); err == nil && (m.Len() < 0 || m.Len() > 1<<16) {
				return true
			}
		}
	}
	return false
}

// checkDecodeDifferential holds ParseBytes to decodeReference on src:
// the same verdict and, when both accept, the same delta — NextXID,
// every op's fields, subtrees Equal with the same XIDs in the same
// places, each free of any parent.
func checkDecodeDifferential(t *testing.T, src []byte) {
	t.Helper()
	got, gotErr := ParseBytes(src)
	if expandsHugeMap(src) {
		if gotErr == nil {
			t.Fatalf("accepted a delta whose xidmap cannot fit its subtree:\n%q", src)
		}
		return
	}
	want, wantErr := decodeReference(src)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("verdicts differ on %q:\n ParseBytes: %v\n reference:  %v", src, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if diff := deltaDifference(got, want); diff != "" {
		t.Fatalf("decoded deltas differ on %q: %s", src, diff)
	}
}

// deltaDifference describes the first way got and want differ, "" when
// they are the same delta down to subtree XIDs.
func deltaDifference(got, want *Delta) string {
	if got.NextXID != want.NextXID {
		return fmt.Sprintf("NextXID %d vs %d", got.NextXID, want.NextXID)
	}
	if len(got.Ops) != len(want.Ops) {
		return fmt.Sprintf("%d ops vs %d", len(got.Ops), len(want.Ops))
	}
	for i := range got.Ops {
		g, w := got.Ops[i], want.Ops[i]
		gs, ws := g.Subtree, w.Subtree
		g.Subtree, w.Subtree = nil, nil
		switch {
		case g != w:
			return fmt.Sprintf("op %d: %#v vs %#v", i, g, w)
		case (gs == nil) != (ws == nil):
			return fmt.Sprintf("op %d: one subtree is missing", i)
		case gs == nil:
		case gs.Parent != nil || ws.Parent != nil:
			return fmt.Sprintf("op %d: a subtree has a parent", i)
		case !dom.Equal(gs, ws):
			return fmt.Sprintf("op %d: subtrees differ: %s", i, dom.Diagnose(gs, ws))
		default:
			gx, wx := dom.Preorder(gs), dom.Preorder(ws)
			for k := range gx {
				if gx[k].XID != wx[k].XID {
					return fmt.Sprintf("op %d: node %d has XID %d vs %d", i, k, gx[k].XID, wx[k].XID)
				}
			}
		}
	}
	return ""
}

// decodeSeeds are deltas hand-written for what no encoder writes: text,
// comments and instructions between ops, inside ops and around the
// root; repeated and nested <old>/<new>; content that is text, merged
// text, an empty CDATA, several nodes; limits of the xidmap syntax.
var decodeSeeds = []string{
	`<delta> <update xid="1"><old>a<x/>b</old><new>c</new></update> </delta>`,
	`<delta><update xid="1"><old>a<x>q<y/>r</x>b</old><new><![CDATA[<c>]]>&amp;&#10;</new></update></delta>`,
	`<delta><update xid="1"><old>a</old><old>b</old><new/><junk><old>z</old></junk>t<!--c--></update></delta>`,
	`<delta><update xid="1"><new>n</new></update></delta>`,
	`<delta><!--c--><?pi x?>text<move from-parent="2" from-pos="1" to-parent="3" to-pos="2" xid="1">in<b/></move>tail</delta>`,
	`<?xml version="1.0"?><!--lead--><!DOCTYPE delta>` + "\n" + `<delta nextxid="4"/>` + "\n<!--trail-->",
	`lead<delta/>tail`, `<delta/><other/>`, `<delta/><delta nextxid="x"/>`, `<delta/><!--`, `<!--only-->`, `<x:delta/>`, `<Delta/>`,
	`<delta nextxid="1" nextxid="x"/>`, `<delta nextxid="x" nextxid="1"/>`, `<delta nextxid=" 1"/>`, `<delta nextxid="+7"/>`, `<delta nextxid="-7"/>`,
	`<delta><insert parent="1" pos="1" xid="1" xidmap="(1)"><![CDATA[]]></insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="1" xidmap="(1)">a<![CDATA[b]]>c</insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="1" xidmap="(1)">a<!--c-->b</insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="2" xidmap="(1-2)"><!DOCTYPE x><a>t</a><?xml version="1.0"?></insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="2" xidmap="(1-2)"> <a/></insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="9" xidmap="(1;5-6;9)"><a k="v" k="w">t<b/><!--c--></a></insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="9" xidmap="(1;5-6;9)"><a>t<b/>u</a></insert></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(1-3)"><a>t<b/></a></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(1-2;3)"><a>t<b/></a></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap=" (1-3) "><a>t<b/></a></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="4" xidmap="(1-4)"><a>t<b/></a></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="2" xidmap="(1-2)"><a>t<b/></a></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(3-1)"><a/></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(;3)"><a/></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(-3)"><a/></delete></delta>`,
	`<delta><delete parent="1" pos="0" xid="3" xidmap="(3)"><a/></delete></delta>`,
	`<delta><delete parent="1" pos="1" xid="3" xidmap="(3)"/></delta>`,
	`<delta><insert parent="1" pos="1" xid="5" xidmap="(0-9223372036854775807)"><a/></insert></delta>`,
	`<delta><insert parent="1" pos="1" xid="5" xidmap="(1-99999999999)"><a/></insert></delta>`,
	`<delta><insert-attribute xid="1" name="" value="v"/><delete-attribute xid="2" name="n"/></delta>`,
	`<delta><update-attribute xid="1" name="n" old="&lt;" new="a&#9;b"><x/></update-attribute></delta>`,
	`<delta><unknown/></delta>`, `<delta><insert/></delta>`, `<delta><update/></delta>`,
	"<delta>\r\n<update xid=\"1\"><old>a\r\nb</old><new k=\"\r\">c\rd</new></update>\r\n</delta>",
	`<delta><update xid="1"><old>a</old><new>b</new></update><update xid="2"><old>c</old></new></update></delta>`,
	`<delta><move from-parent="2" from-pos="1" to-parent="3" to-pos="2" xid="99999999999999999999"/></delta>`,
}

// tagMutations returns src with one snippet spliced in after a tag,
// for every tag and every snippet — stray markup between ops, inside
// them and inside their content — and with each tag cut out.
func tagMutations(src string) []string {
	snippets := []string{" ", "t", "<!--c-->", "<?p q?>", "<x/>", "<![CDATA[c]]>", "<old>o</old>", "</delta>"}
	var out []string
	for i := 0; i < len(src); i++ {
		if src[i] != '>' {
			continue
		}
		for _, s := range snippets {
			out = append(out, src[:i+1]+s+src[i+1:])
		}
		if start := strings.LastIndexByte(src[:i], '<'); start >= 0 {
			out = append(out, src[:start]+src[i+1:])
		}
	}
	return out
}

// decodeCorpus gathers FuzzDeltaDecodeDifferential's seeds: the golden
// deltas, the seeds of this package's other delta fuzzers, generated
// deltas, the hand-written ones, and tag-level mutations of them all.
func decodeCorpus(t testing.TB) []string {
	files, err := filepath.Glob(filepath.Join("testdata", "golden", "*.delta.xml"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden deltas: %v", err)
	}
	var base []string
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, string(raw))
	}
	base = append(base, parseFuzzSeeds...)
	base = append(base, marshalFuzzSeeds...)
	r := rand.New(rand.NewSource(25))
	for i := 0; i < 20; i++ {
		text, err := RandomOps{}.Generate(r, 8).Interface().(RandomOps).D.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		base = append(base, string(text))
	}
	base = append(base, decodeSeeds...)
	corpus := append([]string(nil), base...)
	for _, s := range base {
		corpus = append(corpus, tagMutations(s)...)
	}
	return corpus
}

// FuzzDeltaDecodeDifferential: ParseBytes, which reads a delta as
// tokens and builds only subtree content, decides and decodes every
// input exactly as building the whole document and walking it did.
func FuzzDeltaDecodeDifferential(f *testing.F) {
	for _, s := range decodeCorpus(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkDecodeDifferential(t, []byte(src))
	})
}

// TestDecodedDeltaOwnsItsStrings: a stored record stays resident after
// its delta is decoded and dropped, so nothing decoded may alias it —
// an aliased name or value would keep the record's bytes reachable from
// the trees the replay builds. Scribbling over the source after
// decoding must leave every op and subtree as it was.
func TestDecodedDeltaOwnsItsStrings(t *testing.T) {
	for _, s := range decodeCorpus(t) {
		src := []byte(s)
		d, err := ParseBytes(src)
		if err != nil {
			continue
		}
		before, err := d.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		for i := range src {
			src[i] = '#'
		}
		if after, _ := d.MarshalText(); !bytes.Equal(before, after) {
			t.Fatalf("decoded delta changed when its source did:\n%s\n%s", before, after)
		}
	}
}

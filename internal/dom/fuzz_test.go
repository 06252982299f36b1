package dom

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// parseSeeds are shared by FuzzParse and FuzzParseDifferential: small
// documents and fragments that between them use every construct the
// parser knows.
var parseSeeds = []string{
	`<a/>`,
	`<a><b x="1">text</b><!--c--><?pi d?></a>`,
	`<a>&lt;&amp;&gt;</a>`,
	`<a xmlns:n="urn:x"><n:b/></a>`,
	`<a><![CDATA[raw <stuff>]]></a>`,
	`<!DOCTYPE a [<!ATTLIST e k ID #IMPLIED>]><a><e k="1"/></a>`,
	"<a>\n  mixed <b/> content\n</a>",
	`<a`, `</a>`, ``, `plain`, `<a><b></a></b>`,
	// The namespace patterns names must survive lexically.
	`<html xml:lang="en" xml:space="preserve"><p xml:lang="fr">x</p></html>`,
	`<a xmlns:p="u" xmlns:q="u"><p:x/><q:y p:k="1" q:k="2"/></a>`,
	`<a xmlns="u" xmlns:p="u"><b/><p:b/></a>`,
	// A carriage return that came from a reference is written as one.
	`<a k="&#13;&#10;">x&#13;y&#13;&#10;</a>`,
}

// hasEmptyText reports whether doc holds an empty text node, which
// only an empty CDATA section under KeepWhitespace produces. The
// serializer writes nothing for it, so such a tree cannot round-trip.
func hasEmptyText(doc *Node) bool {
	found := false
	WalkPre(doc, func(n *Node) bool {
		found = found || n.Type == Text && n.Value == ""
		return !found
	})
	return found
}

// checkRoundTrip fails unless doc's canonical text reparses, under
// opts, to an Equal tree with the same text.
func checkRoundTrip(t *testing.T, doc *Node, opts ParseOptions, src string) {
	t.Helper()
	out := doc.String()
	re, err := ParseBytes([]byte(out), opts)
	if err != nil {
		t.Fatalf("canonical output does not reparse: %v\nsource: %q\noutput: %q", err, src, out)
	}
	if !Equal(doc, re) {
		t.Fatalf("reparse changed tree: %s\nsource: %q", Diagnose(doc, re), src)
	}
	if out2 := re.String(); out != out2 {
		t.Fatalf("serialization unstable: %q vs %q", out, out2)
	}
}

// FuzzParse: anything that parses must serialize canonically and
// reparse to an equal tree.
func FuzzParse(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString(src)
		if err != nil {
			return // malformed input: rejection is fine, panics are not
		}
		checkRoundTrip(t, doc, DefaultParseOptions(), src)
	})
}

// differentialSeeds hold, for every rule ParseBytes keeps from
// encoding/xml, one input the rule accepts and one it rejects (or, for
// a normalisation, one that shows it).
var differentialSeeds = []string{
	// Tags nest and match, by spelling.
	`<a><b></b></a>`, `<a><b></a></b>`, `</a>`, `<a>`, `<a><b/>`, `<p:a xmlns:p="u" xmlns:q="u"></q:a>`,
	`<a></a >`, `<a></a x>`, `< a/>`, `<a/ >`, `<a/><b/>`, `<a/>tail`, `lead<a/>`,
	// Names: XML 1.0 grammar, non-ASCII included, at most one colon.
	`<_a.b-c1 d_="1"/>`, `<1a/>`, `<-a/>`, `<a 1="x"/>`, `<é k·="1"/>`, `<·a/>`, "<a\xff/>", `<日本語/>`, `<a×b/>`,
	`<p:a/>`, `<p:q:a/>`, `<:a/>`, `<a:/>`, `<a p:q:k="1"/>`, `<?p:q:r ok?><a/>`,
	// Attributes: quoted, '=' required, no '<', no space needed between, repeats allowed.
	`<a k="1" l='2'/>`, `<a k=1/>`, `<a k/>`, `<a k="<"/>`, `<a k=">"/>`, `<a k="1"l="2"/>`, `<a k="1" k="2"/>`,
	`<a k = "1"/>`, `<a k="it's" l='say "hi"'/>`, `<a k="1`, `<a k=`, `<a `,
	// "]]>" in character data, but not in a value and not across a reference.
	`<a>]]></a>`, `<a>]]&gt;</a>`, `<a>]&#93;></a>`, `<a k="]]>"/>`, `<a>]] ></a>`, `<a><![CDATA[]]]]>></a>`,
	// References: the five entities, decimal and hex, into the Char range.
	`<a k="&lt;&gt;&amp;&apos;&quot;">&lt;&gt;&amp;&apos;&quot;</a>`, `<a>&nbsp;</a>`, `<a>&amp</a>`, `<a>&;</a>`, `<a>&</a>`,
	`<a>&#65;&#x41;&#x6a;&#x6A;</a>`, `<a>&#X41;</a>`, `<a>&#;</a>`, `<a>&#x;</a>`, `<a>&#65</a>`, `<a>&#0;</a>`, `<a>&#1;</a>`,
	`<a>&#9;&#10;&#13;x</a>`, `<a>&#x10FFFF;</a>`, `<a>&#x110000;</a>`, `<a>&#xD800;</a>`, `<a>&#xFFFE;</a>`, `<a>&#xFFFD;</a>`,
	`<a>&#99999999999999999999999;</a>`, `<a>&#0000000000000000000065;</a>`, `<a k="&#1;"/>`, `<a>&#160;</a>`, `<a> &#160; <b/></a>`,
	// Control bytes and invalid UTF-8, in text and in values.
	"<a>\x01</a>", "<a>\t\n</a>", "<a k=\"\x00\"/>", "<a>\xff</a>", "<a k=\"\xc3\"/>", "<a>\xc3\xa9</a>", "<a>\xef\xbf\xbe</a>",
	"<a>\xed\xa0\x80</a>", "<a><![CDATA[\x02]]></a>", "<a>\x7f</a>", "\xef\xbb\xbf<a/>",
	// Comments, CDATA, processing instructions, directives.
	`<a><!----></a>`, `<a><!-- a - b --></a>`, `<a><!-- a -- b --></a>`, `<a><!--a---></a>`, `<a><!-x--></a>`, `<a><!--x</a>`, `<a><!--->`,
	`<a><![CDATA[x]]></a>`, `<a><![CDAT[x]]></a>`, `<a><![CDATA[x</a>`, `<a><![CDATA[<&>]]></a>`, `<a><![</a>`,
	`<a><?pi?><?pi  body ?><?pi ??></a>`, `<a><?pi</a>`, `<a><? pi?></a>`, `<a><?1?></a>`, `<?pi x?><a/><?pj?>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`, `<?xml version="1.1"?><a/>`, `<?xml version='1.0' encoding='utf-8'?><a/>`,
	`<?xml encoding="latin1"?><a/>`, `<a><?xml version="1.0"?></a>`, `<?xml version=1.1?><a/>`, `<?xml xversion="2.0"?><a/>`, `<?xml?><a/>`,
	`<!DOCTYPE a><a/>`, `<!DOCTYPE a SYSTEM "a>b.dtd"><a/>`, `<!DOCTYPE a [<!ELEMENT a (b)><!-- c > --><!ENTITY e "<">]><a/>`,
	`<!DOCTYPE a [<!-x>]><a/>`, `<!DOCTYPE a [<!--x>]><a/>`, `<!DOCTYPE a [<a/>`, `<!DOCTYPE a '><a/>`, `<!><a/>`, `<!>><a/>`, `<!"><a/>`,
	`<!ELEMENT a><a/>`, `<!DOCTYPE a><!DOCTYPE b><a/>`, `<a><!DOCTYPE c></a>`, `<!DOCTYPE a [<`, `<!`, `<`,
	// No root element.
	`<!--only-->`, `text`, `   `, `<?xml version="1.0"?>`,
	// Normalisations: line ends, CDATA merging, the per-run whitespace test.
	"<a k=\"1\r\n2\r3\n4\">x\r\ny\rz\n</a>", "<a>\r<![CDATA[\n]]>\r\n</a>", "<a>x\r&#10;</a>", "<a>\r\n  <b/>\r\n</a>",
	`<a>x<![CDATA[y]]>z</a>`, `<a>x<![CDATA[ ]]></a>`, `<a> <![CDATA[ ]]> </a>`, `<a><![CDATA[]]></a>`, `<a>x<!--c-->y<?p?>z</a>`,
	"<a>\n <b> </b>\n <c>\t</c>\n</a>", "<a/>\n", "\n<a/>",
	// Limits: depth, tokens (a self-closing element is two), bytes.
	`<a><b><c><d/></c></b></a>`, `<a><b><c><d><e/></d></c></b></a>`,
	`<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>`, `<a><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/><b/></a>`,
	`<a>` + strings.Repeat("x", 120) + `</a>`, `<a>` + strings.Repeat("x", 121) + `</a>`, strings.Repeat("<a>", 40),
	// Names the reference cannot re-lexicalise (see referenceMisnames).
	`<a xmlns:foo="p"><p:x/></a>`, `<a xmlns="p"><p:x/></a>`, `<a xmlns:p=""><p:x p:k="1"/></a>`, `<xml:a/>`,
}

// differentialOptions are the option sets FuzzParseDifferential runs
// every input under. The tight limits are sized so the seeds above
// fall on both sides of each.
var differentialOptions = []struct {
	name string
	opts ParseOptions
}{
	{"default", DefaultParseOptions()},
	{"keep-everything", ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true}},
	{"drop-everything", ParseOptions{}},
	{"tight-limits", ParseOptions{KeepComments: true, KeepProcInsts: true,
		Limits: ParseLimits{MaxDepth: 4, maxBytes: 128, MaxTokens: 24}}},
}

// referenceMisnames reports whether doc, a tree with lexical names,
// uses a namespace pattern for which parseReference cannot give the
// names back as they were written. The reference sees only the URI
// encoding/xml resolved a prefix to and looks for a prefix declared
// for that URI, which goes wrong when the prefix is xml (never
// declared: the URI itself is written out, and the output does not
// reparse), when two prefixes — the default namespace counts as one —
// are bound to the same URI (the innermost wins), when a prefix is
// bound to the empty URI (it disappears), and when an undeclared
// prefix is spelled like a declared URI (it is taken for that URI).
// The check is per document, not per scope: it may report a document
// the reference happens to get right, never the reverse.
func referenceMisnames(doc *Node) bool {
	declared := map[string]string{} // URI -> the prefix bound to it
	used := map[string]bool{}       // prefixes of element and attribute names
	misnames := false
	use := func(name string) {
		if prefix, local, ok := strings.Cut(name, ":"); ok && prefix != "" && local != "" {
			used[prefix] = true
		}
	}
	WalkPre(doc, func(n *Node) bool {
		if n.Type != Element {
			return true
		}
		use(n.Name)
		for _, a := range n.Attrs {
			prefix, isDecl := strings.CutPrefix(a.Name, "xmlns:")
			if a.Name == "xmlns" {
				prefix, isDecl = "", true
			}
			if !isDecl || a.Name == "xmlns:" {
				use(a.Name)
				continue
			}
			if other, ok := declared[a.Value]; ok && other != prefix || a.Value == "" && prefix != "" {
				misnames = true
			}
			declared[a.Value] = prefix
		}
		return true
	})
	for prefix := range used {
		if _, ok := declared[prefix]; ok || prefix == "xml" {
			misnames = true
		}
	}
	return misnames
}

// shape renders everything about a tree that String and Equal do not
// pin between them: attribute order, and text-node boundaries.
func shape(b *strings.Builder, n *Node) {
	b.WriteString(n.Type.String())
	b.WriteString("(" + n.Name + "|" + n.Value + "|" + n.Doctype)
	for _, a := range n.Attrs {
		b.WriteString(" " + a.Name + "=" + a.Value)
	}
	for _, c := range n.Children {
		if c.Parent != n {
			b.WriteString(" !parent")
		}
		b.WriteString(" ")
		shape(b, c)
	}
	b.WriteString(")")
}

// FuzzParseDifferential holds ParseBytes to parseReference, the
// encoding/xml-based parser it replaced: the same inputs accepted and
// rejected, the same limit tripped, and the same tree — except where
// the reference misnames nodes, and there the new tree must survive
// its own serialization, which is what the reference's does not.
func FuzzParseDifferential(f *testing.F) {
	for _, s := range parseSeeds {
		f.Add(s)
	}
	for _, s := range differentialSeeds {
		f.Add(s)
	}
	f.Fuzz(checkDifferential)
}

func checkDifferential(t *testing.T, src string) {
	_, wellFormedErr := parseReference(strings.NewReader(src), ParseOptions{})
	for _, o := range differentialOptions {
		got, gotErr := ParseWithOptions(strings.NewReader(src), o.opts)
		want, wantErr := parseReference(strings.NewReader(src), o.opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: verdicts differ: new %v, reference %v\nsource: %q", o.name, gotErr, wantErr, src)
		}
		if gotErr != nil {
			if wellFormedErr != nil {
				continue // malformed: both reject, the messages may differ
			}
			// Well-formed, so a limit did it, and both must say which.
			var gotLimit, wantLimit *LimitError
			if !errors.As(gotErr, &gotLimit) || !errors.As(wantErr, &wantLimit) {
				t.Fatalf("%s: well-formed input refused without a LimitError: new %v, reference %v\nsource: %q", o.name, gotErr, wantErr, src)
			}
			overBytes := o.opts.Limits.maxBytes > 0 && int64(len(src)) > o.opts.Limits.maxBytes
			if overBytes && gotLimit.What != "bytes" {
				t.Fatalf("%s: input over MaxBytes refused for %s\nsource: %q", o.name, gotLimit.What, src)
			}
			if !overBytes && *gotLimit != *wantLimit {
				t.Fatalf("%s: limits differ: new %v, reference %v\nsource: %q", o.name, gotLimit, wantLimit, src)
			}
			continue
		}
		if referenceMisnames(got) {
			if !hasEmptyText(got) {
				reparse := o.opts
				reparse.Limits = ParseLimits{}
				checkRoundTrip(t, got, reparse, src)
			}
			continue
		}
		if gs, ws := got.String(), want.String(); gs != ws {
			t.Fatalf("%s: String differs:\nnew       %q\nreference %q\nsource:   %q", o.name, gs, ws, src)
		}
		if !Equal(got, want) {
			t.Fatalf("%s: trees differ: %s\nsource: %q", o.name, Diagnose(got, want), src)
		}
		if got.Doctype != want.Doctype {
			t.Fatalf("%s: Doctype differs: new %q, reference %q\nsource: %q", o.name, got.Doctype, want.Doctype, src)
		}
		var gb, wb strings.Builder
		shape(&gb, got)
		shape(&wb, want)
		if gb.String() != wb.String() {
			t.Fatalf("%s: shapes differ:\nnew       %s\nreference %s\nsource:   %q", o.name, gb.String(), wb.String(), src)
		}
	}
}

// fuzzCorpus returns the parser's fuzz inputs: the seeds both targets
// add, and every string entry committed under testdata/fuzz.
func fuzzCorpus(t *testing.T) []string {
	t.Helper()
	inputs := append(append([]string(nil), parseSeeds...), differentialSeeds...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n") {
			if arg, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				inputs = append(inputs, s)
			}
		}
	}
	return inputs
}

// TestEncodedLenMatchesWriteTo: the count-only walk agrees with the
// bytes WriteTo writes, on every fuzz input under every option set.
func TestEncodedLenMatchesWriteTo(t *testing.T) {
	for _, src := range fuzzCorpus(t) {
		for _, o := range differentialOptions {
			doc, err := ParseWithOptions(strings.NewReader(src), o.opts)
			if err != nil {
				continue
			}
			var buf bytes.Buffer
			n, err := doc.WriteTo(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if got := doc.EncodedLen(); got != n || n != int64(buf.Len()) {
				t.Fatalf("%s: EncodedLen %d, WriteTo %d (%d buffered)\nsource: %q", o.name, got, n, buf.Len(), src)
			}
		}
	}
}

// TestParseDifferentialMutations runs the differential check over
// seeded token-level mutations of the seed inputs: byte-level fuzzing
// rarely builds a "]]>" or an "xmlns:p=", and fuzz targets run only
// their corpus under plain go test. The seed is fixed, so a failure
// names an input that fails every time.
func TestParseDifferentialMutations(t *testing.T) {
	alphabet := []string{
		"<", ">", "/", "</", "/>", "=", `"`, "'", "&", ";", "#", "x", ":", "-", "--", "-->", "<!--", "!", "?", "<?", "?>",
		"]", "]]>", "<![CDATA[", "<!", "[", "\r", "\n", "\r\n", " ", "\t", "\x00", "\x7f", "\xc3", "\xa9", "é", "·", "￾",
		"&amp;", "&#13;", "&#x0;", "&#xD7FF;", "&#55296;", "&lt", "xml", "xmlns", `xmlns="u"`, `xmlns:p="u"`, `xmlns:q="u"`, "p:", "q:",
		"<a>", "</a>", "<b/>", "a", "1", "DOCTYPE", `version="1.0"`, `encoding="x"`,
	}
	seeds := append(append([]string(nil), parseSeeds...), differentialSeeds...)
	rng := rand.New(rand.NewSource(19))
	n := 10000
	if testing.Short() {
		n = 1000
	}
	for i := 0; i < n; i++ {
		src := seeds[rng.Intn(len(seeds))]
		for k := 1 + rng.Intn(3); k > 0; k-- {
			at := rng.Intn(len(src) + 1)
			switch tok := alphabet[rng.Intn(len(alphabet))]; rng.Intn(3) {
			case 0: // insert
				src = src[:at] + tok + src[at:]
			case 1: // overwrite
				src = src[:at] + tok + src[min(len(src), at+len(tok)):]
			case 2: // delete a stretch, or splice in a piece of another seed
				other := seeds[rng.Intn(len(seeds))]
				src = src[:at] + other[rng.Intn(len(other)+1):]
			}
		}
		checkDifferential(t, src)
	}
}

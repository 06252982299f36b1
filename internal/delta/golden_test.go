package delta_test

// Golden-file tests for the delta XML serialization. A diff-core change
// that alters the computed delta — different ops, different order,
// different XIDs — fails here loudly with a readable diff against the
// committed file instead of surfacing as a silent behavior shift.
// Regenerate the files with:
//
//	go test ./internal/delta -run TestGoldenDeltas -update

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

var update = flag.Bool("update", false, "rewrite the golden delta files")

// goldenCases are small, hand-readable document pairs covering every
// operation kind the delta format serializes: updates, attribute ops,
// deletes, inserts, inter-parent and intra-parent moves.
var goldenCases = []struct {
	name     string
	old, new string
}{
	{
		name: "update-text",
		old:  `<doc><title>Detecting Changes</title><year>2001</year></doc>`,
		new:  `<doc><title>Detecting Changes</title><year>2002</year></doc>`,
	},
	{
		name: "attributes",
		old:  `<cfg><srv host="a" port="80"/><srv host="b" port="81" old="x"/></cfg>`,
		new:  `<cfg><srv host="a" port="8080"/><srv host="b" port="81" fresh="y"/></cfg>`,
	},
	{
		name: "insert-delete",
		old:  `<list><item>one</item><item>two</item><item>three</item></list>`,
		new:  `<list><item>one</item><item>three</item><item>four</item></list>`,
	},
	{
		name: "move-across-parents",
		old:  `<site><page id="p1"><sec>alpha</sec><sec>beta</sec></page><page id="p2"><sec>gamma</sec></page></site>`,
		new:  `<site><page id="p1"><sec>alpha</sec></page><page id="p2"><sec>gamma</sec><sec>beta</sec></page></site>`,
	},
	{
		name: "move-within-parent",
		old:  `<seq><a>111111</a><b>222222</b><c>333333</c><d>444444</d></seq>`,
		new:  `<seq><b>222222</b><c>333333</c><d>444444</d><a>111111</a></seq>`,
	},
	{
		name: "mixed",
		old: `<catalog><product sku="1"><name>chair</name><price>10</price></product>` +
			`<product sku="2"><name>desk</name><price>40</price></product></catalog>`,
		new: `<catalog><product sku="2"><name>desk</name><price>45</price></product>` +
			`<product sku="3"><name>lamp</name><price>7</price></product></catalog>`,
	},
}

func TestGoldenDeltas(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			oldDoc, err := dom.ParseString(tc.old)
			if err != nil {
				t.Fatal(err)
			}
			newDoc, err := dom.ParseString(tc.new)
			if err != nil {
				t.Fatal(err)
			}
			d, err := diff.Diff(oldDoc, newDoc, diff.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := d.MarshalText()
			if err != nil {
				t.Fatal(err)
			}
			// The delta reads back from its XML before its bytes are
			// compared: no committed file may hold one that does not.
			back, err := delta.ParseBytes(got)
			if err != nil {
				t.Fatalf("the delta does not read back: %v\n%s", err, got)
			}
			if again, err := back.MarshalText(); err != nil || string(again) != string(got) {
				t.Fatalf("the delta read back writes %s, %v; want %s", again, err, got)
			}
			got = append(got, '\n')
			path := filepath.Join("testdata", "golden", tc.name+".delta.xml")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create the golden file)", err)
			}
			if string(got) != string(want) {
				t.Errorf("delta for %q changed\n got: %s\nwant: %s\n(intentional? regenerate with -update)",
					tc.name, got, want)
			}
		})
	}
}

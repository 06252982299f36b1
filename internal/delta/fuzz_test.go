package delta

import "testing"

// parseFuzzSeeds are FuzzParse's seeds.
var parseFuzzSeeds = []string{
	`<delta/>`,
	`<delta nextxid="9"><update xid="1"><old>a</old><new>b</new></update></delta>`,
	`<delta><move from-parent="2" from-pos="1" to-parent="3" to-pos="2" xid="1"/></delta>`,
	`<delta><insert parent="1" pos="1" xid="5" xidmap="(4-5)"><e><f/></e></insert></delta>`,
	`<delta><delete parent="1" pos="1" xid="5" xidmap="(5)"><e/></delete></delta>`,
	`<delta><insert-attribute name="k" value="v" xid="3"/></delta>`,
	`<delta><update xid="1"><old/><new> </new></update></delta>`,
	`<delta><unknown/></delta>`,
	`<delta><insert xid="2" xidmap="(1-2)" parent="1" pos="1"><a/></insert></delta>`,
}

// FuzzParse: arbitrary delta documents either fail to parse or
// round-trip stably; inverting twice is the identity on the XML form.
func FuzzParse(f *testing.F) {
	for _, s := range parseFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		text, err := d.MarshalText()
		if err != nil {
			t.Fatalf("marshal after parse: %v", err)
		}
		d2, err := ParseString(string(text))
		if err != nil {
			t.Fatalf("canonical delta does not reparse: %v\n%s", err, text)
		}
		text2, _ := d2.MarshalText()
		if string(text) != string(text2) {
			t.Fatalf("unstable serialization:\n%s\nvs\n%s", text, text2)
		}
		once, err := d.Invert()
		if err != nil {
			t.Fatalf("invert parsed delta: %v", err)
		}
		again, err := once.Invert()
		if err != nil {
			t.Fatalf("invert inverted delta: %v", err)
		}
		twice, _ := again.MarshalText()
		if string(twice) != string(text) {
			t.Fatalf("double inversion changed delta:\n%s\nvs\n%s", text, twice)
		}
	})
}

// marshalFuzzSeeds are FuzzMarshalIdentical's seeds.
var marshalFuzzSeeds = []string{
	`<delta/>`,
	`<delta nextxid="12"/>`,
	`<delta nextxid="9"><update xid="1"><old>a &amp; b</old><new>&lt;c&gt;</new></update></delta>`,
	`<delta><update xid="1"><old/><new> </new></update></delta>`,
	`<delta><move from-parent="2" from-pos="1" to-parent="3" to-pos="2" xid="1"/></delta>`,
	`<delta><insert parent="1" pos="1" xid="5" xidmap="(3-5)"><e z="1" a="&quot;q&quot;&#10;"><f/>t&amp;t</e></insert></delta>`,
	`<delta><insert parent="1" pos="2" xid="6" xidmap="(6)"><!--note--></insert></delta>`,
	`<delta><insert parent="1" pos="2" xid="6" xidmap="(6)"><?target body?></insert></delta>`,
	`<delta><delete parent="1" pos="1" xid="5" xidmap="(5)">text only</delete></delta>`,
	`<delta><insert-attribute name="k" value="a&#9;b" xid="3"/><delete-attribute name="k" old="&lt;" xid="4"/>` +
		`<update-attribute name="n:k" new="" old="x" xid="5"/></delta>`,
}

// FuzzMarshalIdentical: for every delta that parses, the streaming
// encoder and the document-building encoder it replaced produce the
// same bytes, and Size counts them.
func FuzzMarshalIdentical(f *testing.F) {
	for _, s := range marshalFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		d, err := ParseString(src)
		if err != nil {
			return
		}
		checkEncoding(t, d)
	})
}

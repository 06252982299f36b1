package dtd

import (
	"testing"

	"xydiff/internal/dom"
)

func TestParseDoctypeNoSubset(t *testing.T) {
	ids, err := ParseDoctype(`DOCTYPE catalog SYSTEM "catalog.dtd"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 0 {
		t.Errorf("expected no IDs, got %v", ids)
	}
}

func TestParseDoctypeIDAttr(t *testing.T) {
	ids, err := ParseDoctype(`DOCTYPE catalog [
		<!ELEMENT product (name, price)>
		<!ATTLIST product pid ID #REQUIRED>
		<!ATTLIST product status (new|old) "new">
		<!ATTLIST page url CDATA #IMPLIED key ID #IMPLIED>
	]`)
	if err != nil {
		t.Fatal(err)
	}
	if attr, ok := ids.Lookup("product"); !ok || attr != "pid" {
		t.Errorf("product ID attr = %q,%v, want pid", attr, ok)
	}
	if attr, ok := ids.Lookup("page"); !ok || attr != "key" {
		t.Errorf("page ID attr = %q,%v, want key", attr, ok)
	}
	if _, ok := ids.Lookup("name"); ok {
		t.Error("name should have no ID attr")
	}
}

func TestParseDoctypeFixedAndQuotedDefaults(t *testing.T) {
	ids, err := ParseDoctype(`DOCTYPE d [
		<!ATTLIST e a CDATA #FIXED "x" b ID #IMPLIED c CDATA "dflt">
	]`)
	if err != nil {
		t.Fatal(err)
	}
	if attr, ok := ids.Lookup("e"); !ok || attr != "b" {
		t.Errorf("e ID attr = %q,%v, want b", attr, ok)
	}
}

func TestParseDoctypeDuplicateID(t *testing.T) {
	_, err := ParseDoctype(`DOCTYPE d [
		<!ATTLIST e a ID #IMPLIED>
		<!ATTLIST e b ID #IMPLIED>
	]`)
	if err == nil {
		t.Fatal("expected error for two ID attributes on one element")
	}
}

func TestParseDoctypeSameIDTwiceOK(t *testing.T) {
	ids, err := ParseDoctype(`DOCTYPE d [
		<!ATTLIST e a ID #IMPLIED>
		<!ATTLIST e a ID #REQUIRED>
	]`)
	if err != nil {
		t.Fatal(err)
	}
	if attr, _ := ids.Lookup("e"); attr != "a" {
		t.Errorf("e ID attr = %q, want a", attr)
	}
}

func TestParseDoctypeMalformed(t *testing.T) {
	if _, err := ParseDoctype(`DOCTYPE d [ <!ATTLIST e a ID #IMPLIED`); err == nil {
		t.Error("unterminated subset should error")
	}
	if _, err := ParseDoctype(`DOCTYPE d [ <!ATTLIST e a ID #IMPLIED ]`); err == nil {
		t.Error("unterminated declaration should error")
	}
}

func TestTokenizeEnumerations(t *testing.T) {
	toks := tokenize(`e kind (a|b c|d) "x y" rest`)
	want := []string{"e", "kind", "(a|b c|d)", `"x y"`, "rest"}
	if len(toks) != len(want) {
		t.Fatalf("tokenize = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestDoctypeFlowsThroughDOM(t *testing.T) {
	doc, err := dom.ParseString(`<!DOCTYPE catalog [
		<!ATTLIST product pid ID #REQUIRED>
	]>
	<catalog><product pid="p1"/></catalog>`)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := ParseDoctype(doc.Value)
	if err != nil {
		t.Fatal(err)
	}
	if attr, ok := ids.Lookup("product"); !ok || attr != "pid" {
		t.Errorf("ID attrs via DOM = %v", ids)
	}
}

package store

import (
	"testing"

	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/xpathlite"
)

// seedHistory installs four versions of a small catalog.
func seedHistory(t *testing.T) *Store {
	t.Helper()
	s := New(diff.Options{})
	for _, v := range []string{
		`<Catalog><Product><Name>tx</Name><Price>$499</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$479</Price></Product><Product><Name>zy</Name><Price>$799</Price></Product></Catalog>`,
		`<Catalog><Product><Name>tx</Name><Price>$450</Price></Product><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
		`<Catalog><Product><Name>zy</Name><Price>$699</Price></Product></Catalog>`,
	} {
		if _, _, err := s.Put("cat", parse(t, v)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestQueryPastVersions(t *testing.T) {
	s := seedHistory(t)
	expr := xpathlite.MustCompile(`//Product[Name='tx']/Price`)
	nodes, err := s.Query("cat", 1, expr)
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 1 || nodes[0].TextContent() != "$499" {
		t.Fatalf("Query v1 = %v", nodes)
	}
	v, err := s.ValueAt("cat", 3, expr)
	if err != nil {
		t.Fatal(err)
	}
	if v != "$450" {
		t.Errorf("ValueAt v3 = %q", v)
	}
	if _, err := s.Query("ghost", 1, expr); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestTimeline(t *testing.T) {
	s := seedHistory(t)
	tl, err := s.Timeline("cat", xpathlite.MustCompile(`//Product[Name='tx']/Price`))
	if err != nil {
		t.Fatal(err)
	}
	want := []VersionValue{
		{Version: 1, Found: true, Value: "$499"},
		{Version: 2, Found: true, Value: "$479"},
		{Version: 3, Found: true, Value: "$450"},
		{Version: 4, Found: false},
	}
	if len(tl) != len(want) {
		t.Fatalf("timeline length = %d, want %d", len(tl), len(want))
	}
	for i := range want {
		if tl[i] != want[i] {
			t.Errorf("timeline[%d] = %+v, want %+v", i, tl[i], want[i])
		}
	}
	if _, err := s.Timeline("ghost", xpathlite.MustCompile("//x")); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestNodeHistoryAcrossVersions(t *testing.T) {
	s := seedHistory(t)
	// Find the persistent XID of the tx price text node at version 1.
	v1, err := s.Version("cat", 1)
	if err != nil {
		t.Fatal(err)
	}
	price := xpathlite.MustCompile(`//Product[Name='tx']/Price`).SelectFirst(v1)
	if price == nil || price.XID == 0 {
		t.Fatal("price node has no XID")
	}
	hist, err := s.NodeHistory("cat", price.XID)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history length = %d", len(hist))
	}
	if !hist[0].Present || hist[0].Value != "$499" {
		t.Errorf("v1 state = %+v", hist[0])
	}
	if !hist[2].Present || hist[2].Value != "$450" {
		t.Errorf("v3 state = %+v", hist[2])
	}
	if hist[3].Present {
		t.Errorf("v4 should not contain the deleted product's price: %+v", hist[3])
	}
	if _, err := s.NodeHistory("ghost", 1); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestChangesMatching(t *testing.T) {
	s := seedHistory(t)
	// "List of items recently introduced in a catalog": inserted
	// products between v1 and the latest.
	hits, err := s.ChangesMatching("cat", 1, 4,
		xpathlite.MustCompile(`//Product`), delta.KindInsert)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("insert hits = %v", hits)
	}
	if hits[0].Version != 2 || hits[0].Op.Kind() != delta.KindInsert {
		t.Errorf("hit = %+v", hits[0])
	}
	// All price updates, matched through the text-parent rule.
	priceHits, err := s.ChangesMatching("cat", 1, 4,
		xpathlite.MustCompile(`//Price`), delta.KindUpdate)
	if err != nil {
		t.Fatal(err)
	}
	if len(priceHits) != 3 { // 499->479, 479->450, 799->699
		t.Fatalf("price update hits = %d: %+v", len(priceHits), priceHits)
	}
	// Kind filter empty = everything; range errors rejected.
	all, err := s.ChangesMatching("cat", 1, 4, xpathlite.MustCompile(`//Catalog`))
	if err != nil {
		t.Fatal(err)
	}
	_ = all
	if _, err := s.ChangesMatching("cat", 3, 2, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := s.ChangesMatching("cat", 1, 9, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("out-of-range accepted")
	}
	if _, err := s.ChangesMatching("ghost", 1, 2, xpathlite.MustCompile(`//x`)); err == nil {
		t.Error("unknown doc accepted")
	}
}

func TestChangesMatchingDeleteResolvesInOldVersion(t *testing.T) {
	s := seedHistory(t)
	hits, err := s.ChangesMatching("cat", 3, 4,
		xpathlite.MustCompile(`//Product[Name='tx']`), delta.KindDelete)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Version != 4 {
		t.Fatalf("delete hits = %+v", hits)
	}
	if hits[0].Path != "/Catalog/Product[1]" && hits[0].Path != "/Catalog/Product" {
		t.Errorf("delete path = %q", hits[0].Path)
	}
}

func TestNodeHistoryTracksMoves(t *testing.T) {
	s := New(diff.Options{})
	s.Put("m", parse(t, `<r><a><item>payload</item></a><b/></r>`))
	s.Put("m", parse(t, `<r><a/><b><item>payload</item></b></r>`))
	v1, _ := s.Version("m", 1)
	item := xpathlite.MustCompile(`//item`).SelectFirst(v1)
	hist, err := s.NodeHistory("m", item.XID)
	if err != nil {
		t.Fatal(err)
	}
	if !hist[0].Present || !hist[1].Present {
		t.Fatalf("item should exist in both versions: %+v", hist)
	}
	if hist[0].Path == hist[1].Path {
		t.Errorf("move not reflected in paths: %q vs %q", hist[0].Path, hist[1].Path)
	}
	if hist[1].Path != "/r/b/item" {
		t.Errorf("v2 path = %q", hist[1].Path)
	}
}

func TestQueryDeltaDocumentsViaStore(t *testing.T) {
	// Deltas are XML documents: query one with xpathlite.
	s := seedHistory(t)
	d, err := s.Delta("cat", 2)
	if err != nil {
		t.Fatal(err)
	}
	deltaDoc, err := d.ToDoc()
	if err != nil {
		t.Fatal(err)
	}
	ups := xpathlite.MustCompile(`/delta/update/new`).Select(deltaDoc)
	if len(ups) == 0 {
		t.Fatal("no updates found in delta document")
	}
	var hasPrice bool
	for _, u := range ups {
		if u.TextContent() == "$450" {
			hasPrice = true
		}
	}
	if !hasPrice {
		var got []string
		for _, u := range ups {
			got = append(got, u.TextContent())
		}
		t.Errorf("expected $450 among update targets, got %v", got)
	}
}

func TestAggregate(t *testing.T) {
	s := seedHistory(t)
	agg, err := s.Aggregate("cat", 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := s.Version("cat", 1)
	got, err := delta.ApplyClone(v1, agg)
	if err != nil {
		t.Fatal(err)
	}
	v4, _ := s.Version("cat", 4)
	if !dom.Equal(got, v4) {
		t.Fatalf("aggregate 1->4 differs: %s", dom.Diagnose(got, v4))
	}
	// Reverse aggregation.
	back, err := s.Aggregate("cat", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	v1again, err := delta.ApplyClone(v4, back)
	if err != nil {
		t.Fatal(err)
	}
	if !dom.Equal(v1again, v1) {
		t.Fatalf("aggregate 4->1 differs: %s", dom.Diagnose(v1again, v1))
	}
	// Same-version aggregate is empty; bad ranges error.
	same, err := s.Aggregate("cat", 2, 2)
	if err != nil || !same.Empty() {
		t.Errorf("Aggregate(2,2) = %v, %v", same, err)
	}
	if _, err := s.Aggregate("cat", 0, 3); err == nil {
		t.Error("bad range accepted")
	}
	if _, err := s.Aggregate("ghost", 1, 2); err == nil {
		t.Error("unknown doc accepted")
	}
	// An empty range answers as its version does: it used to be empty
	// for any document and any version.
	for _, r := range []struct {
		id string
		v  int
	}{{"ghost", 3}, {"cat", 9}, {"cat", 0}} {
		_, wantErr := s.Version(r.id, r.v)
		if _, err := s.Aggregate(r.id, r.v, r.v); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("Aggregate(%s, %d, %d) = %v, Version says %v", r.id, r.v, r.v, err, wantErr)
		}
	}
}

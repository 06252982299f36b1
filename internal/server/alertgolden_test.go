package server

// The alert bytes the daemon serves are pinned: the polled log of one
// fixed PUT sequence and the NDJSON lines a stream receives for it must
// equal the committed files byte for byte, whatever an alert holds in
// memory. The sequence raises all seven operation kinds, a text-node
// update among them. Regenerate the files with:
//
//	go test ./internal/server -run TestAlertBytesPinned -update

import (
	"bufio"
	"encoding/json"
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// goldenVersions is the PUT sequence of document "g": an update of a
// price's text, every attribute operation, an insert, a delete and a
// product moved to another category.
var goldenVersions = []string{
	`<Catalog><Category name="a"><Product sku="1" status="new"><Name>chair</Name><Price>10</Price></Product>` +
		`<Product sku="2"><Name>desk</Name><Price>40</Price></Product></Category>` +
		`<Category name="b"><Product sku="3" old="x"><Name>lamp</Name><Price>7</Price></Product></Category></Catalog>`,
	`<Catalog><Category name="a"><Product sku="1" status="sale"><Name>chair</Name><Price>15</Price></Product>` +
		`<Product fresh="y" sku="2"><Name>desk</Name><Price>40</Price></Product></Category>` +
		`<Category name="b"><Product sku="3"><Name>lamp</Name><Price>7</Price></Product>` +
		`<Product sku="4"><Name>delta shelf</Name><Price>25</Price></Product></Category></Catalog>`,
	`<Catalog><Category name="a"><Product sku="1" status="sale"><Name>chair</Name><Price>15</Price></Product></Category>` +
		`<Category name="b"><Product sku="4"><Name>delta shelf</Name><Price>25</Price></Product>` +
		`<Product fresh="y" sku="2"><Name>desk</Name><Price>40</Price></Product></Category></Catalog>`,
}

// goldenSubscriptions filter by every means a subscription has: none,
// kind, path, query, content, and another document.
var goldenSubscriptions = []string{
	`{"id":"all"}`,
	`{"id":"inserts","kinds":["insert"],"contains":"delta"}`,
	`{"id":"prices","path":"Product/Price"}`,
	`{"id":"dear","query":"//Product[Price>12]"}`,
	`{"id":"attrs","kinds":["insert-attribute","delete-attribute","update-attribute"]}`,
	`{"id":"gone","kinds":["delete"],"contains":"lamp"}`,
	`{"id":"elsewhere","doc":"other"}`,
}

func TestAlertBytesPinned(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, sub := range goldenSubscriptions {
		if code, _, body := doReq(t, "POST", ts.URL+"/subscriptions", sub); code != http.StatusCreated {
			t.Fatalf("POST subscription %s: %d %s", sub, code, body)
		}
	}

	// The stream's headers are flushed once it holds its cursor into the
	// alert log, so every alert of the PUTs below reaches it.
	resp, err := http.Get(ts.URL + "/docs/g/alerts?follow=30s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow status = %d", resp.StatusCode)
	}
	lines := make(chan string, 1024) // as many as the log keeps: the reader never waits on the test
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			lines <- sc.Text() + "\n"
		}
	}()

	for i, v := range goldenVersions {
		if code, _, body := doReq(t, "PUT", ts.URL+"/docs/g", v); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT v%d: %d %s", i+1, code, body)
		}
		// Another document's alerts must reach neither file.
		if code, _, body := doReq(t, "PUT", ts.URL+"/docs/other", v); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT other v%d: %d %s", i+1, code, body)
		}
	}

	_, _, polled := doReq(t, "GET", ts.URL+"/docs/g/alerts", "")
	var logged []alertJSON
	if err := json.Unmarshal([]byte(polled), &logged); err != nil {
		t.Fatalf("bad alert log %q: %v", polled, err)
	}
	var streamed strings.Builder
	timeout := time.After(10 * time.Second)
	for n := 0; n < len(logged); n++ {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("stream ended after %d of %d alerts", n, len(logged))
			}
			streamed.WriteString(l)
		case <-timeout:
			t.Fatalf("streamed %d of %d alerts", n, len(logged))
		}
	}

	kinds := map[string]bool{}
	for _, a := range logged {
		kinds[a.Kind] = true
	}
	if len(kinds) != 7 {
		t.Errorf("the sequence raises %d operation kinds, want all 7: %v", len(kinds), kinds)
	}
	checkGolden(t, "alerts.json", polled)
	checkGolden(t, "alerts.ndjson", streamed.String())
}

// checkGolden compares got with testdata/name, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create the golden file)", err)
	}
	if got != string(want) {
		t.Errorf("%s changed\n got: %s\nwant: %s\n(intentional? regenerate with -update)", name, got, want)
	}
}

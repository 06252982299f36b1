package server

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
)

// treeGet is how GET /docs/{id} (latest) and /docs/{id}/versions/{n}
// were served before the store's byte read: the tree from
// Store.Latest or Store.Version, streamed with the same headers.
func treeGet(st *vstore.Store, w http.ResponseWriter, id string, n int, latest bool) {
	var doc *dom.Node
	var err error
	if latest {
		doc, n, err = st.Latest(id)
	} else {
		doc, err = st.Version(id, n)
	}
	if err != nil {
		storeError(w, err)
		return
	}
	if deg, reason := st.Degraded(id); deg {
		w.Header().Set("Warning", fmt.Sprintf("110 xydiffd %q", "degraded: "+reason))
	}
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("X-Xydiff-Version", strconv.Itoa(n))
	_, _ = doc.WriteTo(w)
}

// chainServer serves a store that holds a degraded "doc" (versions
// 1..3 intact), a BULD catalog chain "catalog" and an SFTM page chain
// "page", each of the given number of versions, all PUT over HTTP.
func chainServer(t *testing.T, versions int) (*vstore.Store, *httptest.Server) {
	t.Helper()
	st, dir, ts := newVstoreServer(t, vstore.Config{
		Shards: 1,
		Scrub:  vstore.ScrubConfig{Throttle: -1, NoRepair: true},
	})
	degradeServerDoc(t, st, dir)
	rng := rand.New(rand.NewSource(37))
	catalog, page := changesim.Catalog(rng, 3, 4), changesim.HTMLPage(rng, 4)
	for v := 1; v <= versions; v++ {
		for _, put := range []struct{ url, body string }{
			{"/docs/catalog", catalog.String()},
			{"/docs/page?matcher=sftm", page.String()},
		} {
			if code, _, resp := doReq(t, "PUT", ts.URL+put.url, put.body); code != http.StatusOK && code != http.StatusCreated {
				t.Fatalf("PUT %s v%d: %d %s", put.url, v, code, resp)
			}
		}
		res, err := changesim.Simulate(catalog, changesim.Uniform(0.12, int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		catalog = res.New
		html, err := changesim.SimulateHTML(page, changesim.UniformHTML(0.08, int64(v)))
		if err != nil {
			t.Fatal(err)
		}
		page = html.New
	}
	return st, ts
}

// TestVersionGetsServeTheTree: every version read over HTTP — of a
// BULD chain, of an SFTM chain, of a degraded document, past either
// end and of an unknown document — answers with the status, body,
// Content-Type, X-Xydiff-Version and Warning that serving the tree
// gave.
func TestVersionGetsServeTheTree(t *testing.T) {
	st, ts := chainServer(t, 6)
	check := func(id string, n int, latest bool) {
		t.Helper()
		path := "/docs/" + id
		if !latest {
			path += "/versions/" + strconv.Itoa(n)
		}
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := httptest.NewRecorder()
		treeGet(st, want, id, n, latest)
		if resp.StatusCode != want.Code || string(body) != want.Body.String() {
			t.Fatalf("GET %s: %d %s\nthe tree read: %d %s", path, resp.StatusCode, body, want.Code, want.Body)
		}
		for _, h := range []string{"Content-Type", "X-Xydiff-Version", "Warning"} {
			if got, want := resp.Header.Get(h), want.Header().Get(h); got != want {
				t.Errorf("GET %s: %s %q, the tree read gave %q", path, h, got, want)
			}
		}
	}
	for _, id := range []string{"catalog", "page", "doc", "no-such-document"} {
		for n := 0; n <= st.Versions(id)+1; n++ {
			check(id, n, false)
		}
		check(id, 0, true)
	}
}

// TestOneStepDeltaRangeIsTheStoredDelta: over HTTP, /deltas/n and
// /deltas/n..n+1 answer the same bytes and /deltas/n+1..n their
// inversion, for a BULD and an SFTM chain. A one-step range outside a
// degraded document's intact history answers 410 with its Warning, and
// one outside a document's versions 404. A delete whose element's middle
// child moves away (ROADMAP item 1's pattern) is served like any other
// delta, and reads back from its XML.
func TestOneStepDeltaRangeIsTheStoredDelta(t *testing.T) {
	const versions = 5
	_, ts := chainServer(t, versions)
	get := func(id, spec string) (int, http.Header, string) {
		t.Helper()
		return doReq(t, "GET", ts.URL+"/docs/"+id+"/deltas/"+spec, "")
	}
	check := func(id string, n int, degraded bool) {
		t.Helper()
		code, hdr, stored := get(id, strconv.Itoa(n))
		if code != http.StatusOK {
			t.Fatalf("%s delta %d: %d %s", id, n, code, stored)
		}
		d, err := delta.ParseBytes([]byte(stored))
		if err != nil {
			t.Fatal(err)
		}
		inv, err := d.Invert()
		if err != nil {
			t.Fatal(err)
		}
		inverted, err := inv.MarshalText()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			spec, want string
		}{
			{fmt.Sprintf("%d..%d", n, n+1), stored},
			{fmt.Sprintf("%d..%d", n+1, n), string(inverted)},
		} {
			code, rhdr, body := get(id, c.spec)
			if code != http.StatusOK || body != c.want {
				t.Errorf("%s deltas/%s: %d\n%s\nwant\n%s", id, c.spec, code, body, c.want)
			}
			if w := rhdr.Get("Warning"); w != hdr.Get("Warning") || (w != "") != degraded {
				t.Errorf("%s deltas/%s: Warning %q, deltas/%d's %q", id, c.spec, w, n, hdr.Get("Warning"))
			}
		}
	}
	for n := 1; n < versions; n++ {
		check("catalog", n, false)
		check("page", n, false)
	}
	check("doc", 2, true)

	for _, c := range []struct {
		id, spec string
		code     int
	}{
		{"doc", "3..4", http.StatusGone},
		{"doc", "4..3", http.StatusGone},
		{"catalog", "5..6", http.StatusNotFound},
		{"catalog", "6..5", http.StatusNotFound},
		{"catalog", "0..1", http.StatusNotFound},
		{"ghost", "1..2", http.StatusNotFound},
	} {
		code, hdr, body := get(c.id, c.spec)
		if code != c.code {
			t.Errorf("%s deltas/%s: %d %s, want %d", c.id, c.spec, code, body, c.code)
		}
		if w := hdr.Get("Warning"); (c.code == http.StatusGone) != strings.Contains(w, "degraded") {
			t.Errorf("%s deltas/%s: Warning %q", c.id, c.spec, w)
		}
	}

	// Deleting <p> while its <x> moves away keeps <x> inside the deleted
	// subtree, between its texts, so the stored delta reads back.
	for _, body := range []string{
		`<r><p>a<x>a heavy payload</x>b</p><q/></r>`,
		`<r><q><x>a heavy payload</x></q></r>`,
	} {
		if code, _, resp := doReq(t, "PUT", ts.URL+"/docs/mover", body); code != http.StatusOK && code != http.StatusCreated {
			t.Fatalf("PUT mover: %d %s", code, resp)
		}
	}
	check("mover", 1, false)
}

// TestOneDeltaStatuses: /deltas/n answers 200 for every stored delta,
// 410 for any n from a degraded document's intact versions on, and 404
// for any other n, the largest int included, and for an unknown
// document; a degraded document's answers but the 404s carry its
// Warning.
func TestOneDeltaStatuses(t *testing.T) {
	st, ts := chainServer(t, 5)
	for _, id := range []string{"catalog", "doc", "ghost"} {
		versions := st.Versions(id)
		degraded, _ := st.Degraded(id)
		for _, n := range []int{-1, 0, 1, versions - 1, versions, versions + 1, math.MaxInt} {
			want := http.StatusNotFound
			switch {
			case n >= 1 && n < versions:
				want = http.StatusOK
			case n >= versions && degraded:
				want = http.StatusGone
			}
			code, hdr, body := doReq(t, "GET", fmt.Sprintf("%s/docs/%s/deltas/%d", ts.URL, id, n), "")
			if code != want {
				t.Errorf("%s (%d versions) deltas/%d: %d %s, want %d", id, versions, n, code, body, want)
			}
			if w := hdr.Get("Warning"); strings.Contains(w, "degraded") != (degraded && want != http.StatusNotFound) {
				t.Errorf("%s deltas/%d: Warning %q", id, n, w)
			}
		}
	}
}

package server

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"xydiff/internal/changesim"
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

// TestVersionGetsServeTheTree: every version read over HTTP — of a
// BULD chain, of an SFTM chain, of a degraded document, past either
// end and of an unknown document — answers with the status, body,
// Content-Type, X-Xydiff-Version and Warning that serving the tree
// gave.
func TestVersionGetsServeTheTree(t *testing.T) {
	st, dir, ts := newVstoreServer(t, vstore.Config{
		Shards:          1,
		SegmentBytes:    1,
		CompactSegments: -1,
		Scrub:           vstore.ScrubConfig{Throttle: -1, NoRepair: true},
	})
	degradeServerDoc(t, st, dir)
	rng := rand.New(rand.NewSource(37))
	catalog, page := changesim.Catalog(rng, 3, 4), changesim.HTMLPage(rng, 4)
	for v := 1; v <= 6; v++ {
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

package changesim

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"xydiff/internal/dom"
)

// version is the current version number of the document at path (0
// when the path is not served).
func version(s *CorpusServer, path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d := s.docs[path]; d != nil {
		return d.version
	}
	return 0
}

func fetch(t *testing.T, client *http.Client, url string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestServeCorpusConditionalGet(t *testing.T) {
	origin, err := ServeCorpus(7, 3)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()
	path := origin.Paths()[0]

	resp, body := fetch(t, ts.Client(), ts.URL+path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if _, err := dom.ParseString(string(body)); err != nil {
		t.Fatalf("served body does not parse as XML: %v", err)
	}
	etag := resp.Header.Get("ETag")
	lastMod := resp.Header.Get("Last-Modified")
	if etag == "" || lastMod == "" {
		t.Fatalf("missing validators: ETag=%q Last-Modified=%q", etag, lastMod)
	}

	// Revalidation against the current version: 304, no body.
	resp, body = fetch(t, ts.Client(), ts.URL+path, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("If-None-Match: status = %d, body %d bytes", resp.StatusCode, len(body))
	}
	resp, _ = fetch(t, ts.Client(), ts.URL+path, map[string]string{"If-Modified-Since": lastMod})
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-Modified-Since: status = %d", resp.StatusCode)
	}

	// After a mutation the same validators must stop matching.
	if err := origin.Mutate(path); err != nil {
		t.Fatal(err)
	}
	resp, body = fetch(t, ts.Client(), ts.URL+path, map[string]string{"If-None-Match": etag})
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("post-mutation If-None-Match: status = %d, body %d bytes", resp.StatusCode, len(body))
	}
	if got := resp.Header.Get("ETag"); got == etag {
		t.Fatal("ETag unchanged across a mutation")
	}
	resp, _ = fetch(t, ts.Client(), ts.URL+path, map[string]string{"If-Modified-Since": lastMod})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-mutation If-Modified-Since: status = %d", resp.StatusCode)
	}
	if version(origin, path) != 2 {
		t.Fatalf("version = %d, want 2", version(origin, path))
	}
}

func TestServeCorpusDeterministic(t *testing.T) {
	build := func() (*CorpusServer, [][]byte) {
		origin, err := ServeCorpus(2002, 5)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := origin.Tick(0.5); err != nil {
			t.Fatal(err)
		}
		if err := origin.Mutate(origin.Paths()[1]); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(origin)
		defer ts.Close()
		var bodies [][]byte
		for _, p := range origin.Paths() {
			resp, body := fetch(t, ts.Client(), ts.URL+p, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			bodies = append(bodies, append(body, resp.Header.Get("ETag")...))
		}
		return origin, bodies
	}
	a, aBodies := build()
	b, bBodies := build()
	for i := range aBodies {
		if string(aBodies[i]) != string(bBodies[i]) {
			t.Fatalf("corpus diverged at doc %d despite identical seed and drive sequence", i)
		}
	}
	for _, p := range a.Paths() {
		if version(a, p) != version(b, p) {
			t.Fatalf("version diverged at %s: %d vs %d", p, version(a, p), version(b, p))
		}
	}
}

func TestServeCorpusTickEvolves(t *testing.T) {
	origin, err := ServeCorpus(11, 10)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := origin.Tick(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 10 {
		t.Fatalf("Tick(1.0) changed %d of 10", changed)
	}
	changed, err = origin.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("Tick(0) changed %d", changed)
	}
}

func TestServeCorpusMethodAndPathErrors(t *testing.T) {
	origin, err := ServeCorpus(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(origin)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+origin.Paths()[0], "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST status = %d", resp.StatusCode)
	}
	resp, _ = fetch(t, ts.Client(), ts.URL+"/doc/999", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing path status = %d", resp.StatusCode)
	}
}

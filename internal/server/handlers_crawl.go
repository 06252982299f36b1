package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
)

// crawlIngest is the crawler's way into the pipeline: the fetched body
// (bounded by MaxBodyBytes, see EnableCrawl) goes through the same
// hardened parse limits as an HTTP PUT and the same ingest call, so
// crawled and client traffic compete for — and are shed by — one
// backpressure budget. A shed reaches the crawler as a RetryAfterError
// carrying the hint a shed PUT gets.
func (s *Server) crawlIngest(ctx context.Context, id string, body []byte) (bool, error) {
	doc, err := dom.ParseBytes(body, s.parseOptions())
	if err != nil {
		return false, fmt.Errorf("parse %s: %w", id, err)
	}
	// The source's registered matcher (validated at registration time)
	// rides along: a page-monitoring source diffs with sftm while XML
	// feeds on the same server keep the default.
	src, _ := s.crawler.Registry().Get(id)
	res, err := s.ingest(ctx, id, doc, diff.Matcher(src.Matcher))
	if err != nil {
		return false, err
	}
	return res.Version == 1 || !res.Delta.Empty(), nil
}

// sourceJSON is the wire form of a crawl source: durations and times as
// strings, plus the live schedule introspection.
type sourceJSON struct {
	ID          string  `json:"id"`
	URL         string  `json:"url"`
	Matcher     string  `json:"matcher,omitempty"`
	Interval    string  `json:"interval,omitempty"`
	NextFetch   string  `json:"nextFetch,omitempty"`
	ETag        string  `json:"etag,omitempty"`
	Fetches     int64   `json:"fetches"`
	NotModified int64   `json:"notModified"`
	Changes     int64   `json:"changes"`
	Errors      int64   `json:"errors"`
	Failures    int64   `json:"failures,omitempty"`
	CircuitOpen bool    `json:"circuitOpen"`
	ChangeRate  float64 `json:"changeRate"`
}

func toSourceJSON(src crawl.Source) sourceJSON {
	j := sourceJSON{
		ID:          src.ID,
		URL:         src.URL,
		Matcher:     src.Matcher,
		ETag:        src.ETag,
		Fetches:     src.Fetches,
		NotModified: src.NotModified,
		Changes:     src.Changes,
		Errors:      src.Errors,
		Failures:    int64(src.Failures),
		CircuitOpen: src.CircuitOpen(time.Now()),
		ChangeRate:  src.ChangeRate,
	}
	if src.Interval > 0 {
		j.Interval = src.Interval.String()
	}
	if !src.NextFetch.IsZero() {
		j.NextFetch = src.NextFetch.UTC().Format(time.RFC3339)
	}
	return j
}

// crawlEnabled 503s requests against the source API when the server
// runs without an acquisition layer.
func (s *Server) crawlEnabled(w http.ResponseWriter) bool {
	if s.crawler == nil {
		writeError(w, http.StatusServiceUnavailable, "crawling is not enabled on this server")
		return false
	}
	return true
}

func (s *Server) handleCreateSource(w http.ResponseWriter, r *http.Request) {
	if !s.crawlEnabled(w) {
		return
	}
	var req struct {
		ID      string `json:"id"`
		URL     string `json:"url"`
		Matcher string `json:"matcher"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parse source: "+err.Error())
		return
	}
	src := crawl.Source{ID: req.ID, URL: req.URL, Matcher: req.Matcher}
	if err := src.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Add saves the registry, so the 201 promises a source that
	// survives a crash.
	src, err := s.crawler.Add(src)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.log.Info("crawl source added", "id", src.ID, "url", src.URL)
	writeJSON(w, http.StatusCreated, toSourceJSON(src))
}

func (s *Server) handleListSources(w http.ResponseWriter, r *http.Request) {
	if !s.crawlEnabled(w) {
		return
	}
	out := []sourceJSON{}
	for _, src := range s.crawler.Registry().List() {
		out = append(out, toSourceJSON(src))
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetSource(w http.ResponseWriter, r *http.Request) {
	if !s.crawlEnabled(w) {
		return
	}
	src, ok := s.crawler.Registry().Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such source")
		return
	}
	writeJSON(w, http.StatusOK, toSourceJSON(src))
}

func (s *Server) handleDeleteSource(w http.ResponseWriter, r *http.Request) {
	if !s.crawlEnabled(w) {
		return
	}
	ok, err := s.crawler.Registry().Remove(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !ok {
		writeError(w, http.StatusNotFound, "no such source")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

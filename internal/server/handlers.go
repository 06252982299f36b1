package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/crawl"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// Past WriteHeader the status is committed; an encode error just
	// means the client hung up.
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// storeError maps store failures onto HTTP statuses: a shed ingest is
// 503 with its Retry-After hint, unknown documents and out-of-range
// versions are 404s, deadline hits are load-shedding 503s, degraded
// history (quarantined by the scrubber) is 410 Gone with a Warning
// header — never a 500 — and the rest are genuine 500s.
func storeError(w http.ResponseWriter, err error) {
	var shed *crawl.RetryAfterError
	var de *vstore.DegradedError
	switch {
	case errors.As(err, &shed):
		w.Header().Set("Retry-After", strconv.Itoa(int(shed.After/time.Second)))
		writeError(w, http.StatusServiceUnavailable, shed.Err.Error())
	case errors.As(err, &de):
		w.Header().Set("Warning", fmt.Sprintf("110 xydiffd %q", "degraded: "+de.Reason))
		writeJSON(w, http.StatusGone, map[string]any{
			"error":          de.Error(),
			"degraded":       true,
			"intactVersions": de.Intact,
		})
	case errors.Is(err, vstore.ErrUnknownDocument), errors.Is(err, vstore.ErrNoSuchVersion):
		writeError(w, http.StatusNotFound, err.Error())
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "request deadline exceeded during diff")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// warnDegraded stamps the Warning header when the document serves
// degraded — reads of a document whose history is partly quarantined
// succeed with a warning instead of failing; must run before the
// response body starts.
func (s *Server) warnDegraded(w http.ResponseWriter, id string) {
	if deg, reason := s.store.Degraded(id); deg {
		w.Header().Set("Warning", fmt.Sprintf("110 xydiffd %q", "degraded: "+reason))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rec := s.store.RecoveryStats()
	body := map[string]any{
		"status":      "ok",
		"documents":   len(s.store.IDs()),
		"uptime":      time.Since(s.started).Round(time.Second).String(),
		"journalSync": s.store.SyncPolicy().String(),
		"recovery": map[string]any{
			"documents":        rec.Documents,
			"snapshotVersions": rec.SnapshotVersions,
			"journalRecords":   rec.JournalRecords,
			"journalSkipped":   rec.JournalSkipped,
			"tornTails":        rec.TornTails,
			"journalBytes":     rec.JournalBytes,
		},
	}
	if s.crawler != nil {
		cs := s.crawler.Metrics().Snapshot()
		body["crawl"] = map[string]any{
			"sources":      cs.Sources,
			"queueDepth":   cs.QueueDepth,
			"openCircuits": cs.OpenCircuits,
			"fetches":      cs.Fetches,
			"notModified":  cs.NotModified,
		}
	}
	ss := s.store.StorageStats()
	perShard := make([]map[string]any, 0, len(ss.PerShard))
	for _, sh := range ss.PerShard {
		perShard = append(perShard, map[string]any{
			"shard":           sh.Shard,
			"sealedSegments":  sh.SealedSegments,
			"lastCompactUnix": sh.LastCompactUnix,
			"quarantined":     sh.Quarantined,
			"degradedDocs":    sh.DegradedDocs,
		})
	}
	body["storage"] = map[string]any{
		"engine":            "vstore",
		"shards":            ss.Shards,
		"documents":         ss.Documents,
		"segments":          ss.Segments,
		"sealedSegments":    ss.SealedSegments,
		"fsyncTotal":        ss.FsyncTotal,
		"meanFsyncBatch":    ss.MeanBatch(),
		"maxFsyncBatch":     ss.MaxBatch,
		"rejected":          ss.Rejected,
		"cacheHitRatio":     ss.CacheHitRatio(),
		"cacheHits":         ss.CacheHits,
		"cacheMisses":       ss.CacheMisses,
		"cacheLen":          ss.CacheLen,
		"cacheCap":          ss.CacheCap,
		"keyframeRestores":  ss.KeyframeRestores,
		"keyframeFallbacks": ss.KeyframeFallbacks,
		"keyframeBytes":     ss.KeyframeBytes,
		"historyXMLBytes":   ss.HistoryXMLBytes,
		"historyFrameBytes": ss.HistoryFrameBytes,
		"deltasDecoded":     ss.DeltasDecoded,
		"compactions":       ss.Compactions,
		"compactionSeconds": ss.CompactionSeconds,
		"degradedDocs":      ss.DegradedDocs,
		"quarantined":       ss.Quarantined,
		"format":            ss.Format,
		"snapshotBytes":     ss.SnapshotStoredBytes,
		"snapshotRawBytes":  ss.SnapshotRawBytes,
		"scrub": map[string]any{
			"cycles":           ss.Scrub.Cycles,
			"bytesScanned":     ss.Scrub.BytesScanned,
			"recordsVerified":  ss.Scrub.RecordsVerified,
			"found":            ss.Scrub.Found,
			"repaired":         ss.Scrub.Repaired,
			"quarantined":      ss.Scrub.Quarantined,
			"lastCycleUnix":    ss.Scrub.LastUnix,
			"lastCycleSeconds": ss.Scrub.LastSeconds,
		},
		"perShard": perShard,
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleListDocs(w http.ResponseWriter, r *http.Request) {
	type docInfo struct {
		ID       string `json:"id"`
		Versions int    `json:"versions"`
	}
	out := []docInfo{}
	for _, id := range s.store.IDs() {
		out = append(out, docInfo{ID: id, Versions: s.store.Versions(id)})
	}
	writeJSON(w, http.StatusOK, out)
}

// parseOptions are the hardened parse options applied to uploaded and
// crawled documents: the standard content model plus the depth and
// token bounds (body bytes are already capped at MaxBodyBytes, by
// MaxBytesReader or by the crawler's fetch).
func (s *Server) parseOptions() dom.ParseOptions {
	opts := dom.DefaultParseOptions()
	opts.Limits = cmp.Or(s.cfg.parseLimits, dom.ParseLimits{MaxDepth: maxParseDepth, MaxTokens: maxParseTokens})
	return opts
}

// maxBodyPrealloc caps the buffer a PUT body is read into once its
// first byte has arrived: room for a large catalog (~150 KB) in one
// allocation. A larger body grows the buffer as it comes.
const maxBodyPrealloc = 256 << 10

// bodySizeHint is how large a buffer to read a PUT body into: its
// declared length, but never more than limit or maxBodyPrealloc. The
// reader sizes the buffer only after the body's first byte arrives, so
// a client that declares a large body and sends none costs the daemon
// nothing, and one that sends a byte and stalls at most the cap. A
// chunked or missing length (-1) gives no hint.
func bodySizeHint(contentLength, limit int64) int {
	return int(max(min(contentLength, limit, maxBodyPrealloc), 0))
}

// sizedBody is a request body that reports a size hint as Len, which
// dom's reader sizes its buffer by; a hint that is wrong costs only the
// growth a body without one gets.
type sizedBody struct {
	io.Reader
	n int
}

func (b sizedBody) Len() int { return b.n }

func (s *Server) handlePutDoc(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	// ?matcher= overrides the store's configured matcher for this PUT
	// only (e.g. matcher=sftm for an HTML snapshot of a page that lost
	// its ids). Absent or empty means the store default.
	matcher, err := parseMatcherParam(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	body := sizedBody{
		Reader: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes),
		n:      bodySizeHint(r.ContentLength, s.cfg.MaxBodyBytes),
	}
	doc, err := dom.ParseWithOptions(body, s.parseOptions())
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("document exceeds %d bytes", s.cfg.MaxBodyBytes))
			return
		}
		var limit *dom.LimitError
		if errors.As(err, &limit) {
			// A byte-bound breach is the same class as MaxBytesReader
			// (413); structural bounds mean the document is well-formed
			// bytes but unacceptable content (422).
			code := http.StatusUnprocessableEntity
			if limit.What == "bytes" {
				code = http.StatusRequestEntityTooLarge
			}
			writeError(w, code, limit.Error())
			return
		}
		writeError(w, http.StatusBadRequest, "parse document: "+err.Error())
		return
	}

	res, err := s.ingest(r.Context(), id, doc, matcher)
	if err != nil {
		storeError(w, err)
		return
	}
	// deltaBytes is the length of the record body the store wrote, the
	// same bytes GET /docs/{id}/deltas/{n} serves.
	resp := map[string]any{"id": id, "version": res.Version, "deltaOps": 0, "deltaBytes": res.DeltaBytes}
	if res.Delta != nil {
		resp["deltaOps"] = len(res.Delta.Ops)
	}
	code := http.StatusOK
	if res.Version == 1 {
		code = http.StatusCreated
	}
	writeJSON(w, code, resp)
}

// ingest is the one way a version reaches the store, from a PUT or from
// the crawler. The diff runs on the bounded worker pool: per-document
// ordering comes from the store's history lock, global concurrency from
// the pool. A full diff queue or a saturated group-commit queue
// (vstore.ErrBusy) sheds the version, never blocking: see shed. If ctx
// ends first, the job keeps its slot until the canceled diff unwinds;
// the caller just stops waiting.
func (s *Server) ingest(ctx context.Context, id string, doc *dom.Node, matcher diff.Matcher) (vstore.PutResult, error) {
	type putResult struct {
		vstore.PutResult
		err error
	}
	done := make(chan putResult, 1)
	if err := s.pool.submit(func() {
		res, err := s.store.PutDetailed(ctx, id, doc, matcher)
		done <- putResult{res, err}
	}); err != nil {
		return vstore.PutResult{}, s.shed(err)
	}
	select {
	case res := <-done:
		if errors.Is(res.err, vstore.ErrBusy) {
			return vstore.PutResult{}, s.shed(res.err)
		}
		if res.err == nil {
			s.shedBackoff.Reset() // the hint resets once a version gets through
		}
		return res.PutResult, res.err
	case <-ctx.Done():
		return vstore.PutResult{}, ctx.Err()
	}
}

// shed counts a version turned away by backpressure and returns err as
// a *crawl.RetryAfterError: the hint, in whole seconds, grows with
// consecutive sheds (retry.Policy), so sustained overload pushes
// retries further out instead of re-inviting the herd. A PUT answers it
// as 503 + Retry-After (storeError); the crawler waits it out.
func (s *Server) shed(err error) error {
	s.metrics.addRejected()
	after := max(s.shedBackoff.Next().Round(time.Second), time.Second)
	return &crawl.RetryAfterError{After: after, Err: err}
}

// parseMatcherParam reads the optional ?matcher= override. The empty
// string means "use the store's configured matcher" and is passed
// through as-is (the store, not the handler, knows its default).
func parseMatcherParam(r *http.Request) (diff.Matcher, error) {
	v := r.URL.Query().Get("matcher")
	if v == "" {
		return "", nil
	}
	m, err := diff.ParseMatcher(v)
	if err != nil {
		return "", err
	}
	return m, nil
}

// writeDoc answers with version of a document, doc, streamed through
// the encoder's flush buffer: no buffer the size of the body is made.
// doc is the store's (vstore.Store.View), read here and not changed.
func writeDoc(w http.ResponseWriter, doc *dom.Node, version int) {
	w.Header().Set("Content-Type", "application/xml")
	w.Header().Set("X-Xydiff-Version", strconv.Itoa(version))
	_, _ = doc.WriteTo(w) // headers are out; a write error means the client hung up
}

func (s *Server) handleGetLatest(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	doc, version, err := s.store.View(id, 0, true)
	if err != nil {
		storeError(w, err)
		return
	}
	s.warnDegraded(w, id)
	writeDoc(w, doc, version)
}

func (s *Server) handleGetVersion(w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.PathValue("n"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "version must be an integer")
		return
	}
	id := r.PathValue("id")
	doc, version, err := s.store.View(id, n, false)
	if err != nil {
		storeError(w, err)
		return
	}
	s.warnDegraded(w, id)
	writeDoc(w, doc, version)
}

// handleGetDelta serves /docs/{id}/deltas/{spec} where spec is either a
// single delta number n (version n -> n+1), served as the range
// n..n+1, or a range a..b, served as the aggregated delta transforming
// version a into version b (b < a yields the inverted aggregate).
func (s *Server) handleGetDelta(w http.ResponseWriter, r *http.Request) {
	id, spec := r.PathValue("id"), r.PathValue("spec")
	var a, b int
	if from, to, ok := strings.Cut(spec, ".."); ok {
		var errA, errB error
		a, errA = strconv.Atoi(from)
		b, errB = strconv.Atoi(to)
		if errA != nil || errB != nil {
			writeError(w, http.StatusBadRequest, "delta range must be A..B with integer versions")
			return
		}
	} else {
		n, err := strconv.Atoi(spec)
		if err != nil {
			writeError(w, http.StatusBadRequest, "delta spec must be N or A..B")
			return
		}
		if n == math.MaxInt {
			n-- // so that n+1 does not wrap: both are past every version
		}
		a, b = n, n+1
	}
	d, err := s.store.Aggregate(id, a, b)
	if err != nil {
		storeError(w, err)
		return
	}
	s.warnDegraded(w, id)
	w.Header().Set("Content-Type", "application/xml")
	_, _ = d.WriteTo(w) // headers are out; a write error means the client hung up
}

// ---------------------------------------------------------------------------
// Subscriptions and alerts.

type subscriptionJSON struct {
	ID       string   `json:"id"`
	Doc      string   `json:"doc,omitempty"`
	Path     string   `json:"path,omitempty"`
	Query    string   `json:"query,omitempty"`
	Kinds    []string `json:"kinds,omitempty"`
	Contains string   `json:"contains,omitempty"`
}

func parseKind(s string) (delta.Kind, error) {
	for _, k := range []delta.Kind{
		delta.KindInsert, delta.KindDelete, delta.KindUpdate, delta.KindMove,
		delta.KindInsertAttr, delta.KindDeleteAttr, delta.KindUpdateAttr,
	} {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown operation kind %q", s)
}

func (s *Server) handleCreateSubscription(w http.ResponseWriter, r *http.Request) {
	var req subscriptionJSON
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "parse subscription: "+err.Error())
		return
	}
	if req.ID == "" {
		writeError(w, http.StatusBadRequest, "subscription needs an id")
		return
	}
	sub := alert.Subscription{ID: req.ID, DocID: req.Doc, Path: req.Path, Contains: req.Contains}
	if req.Query != "" {
		expr, err := xpathlite.Compile(req.Query)
		if err != nil {
			writeError(w, http.StatusBadRequest, "compile query: "+err.Error())
			return
		}
		sub.Query = expr
	}
	for _, ks := range req.Kinds {
		k, err := parseKind(ks)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		sub.Kinds = append(sub.Kinds, k)
	}
	s.pipeline.Alerter.Subscribe(sub)
	writeJSON(w, http.StatusCreated, req)
}

func (s *Server) handleListSubscriptions(w http.ResponseWriter, r *http.Request) {
	out := []subscriptionJSON{}
	for _, sub := range s.pipeline.Alerter.Subscriptions() {
		j := subscriptionJSON{ID: sub.ID, Doc: sub.DocID, Path: sub.Path, Contains: sub.Contains}
		if sub.Query != nil {
			j.Query = sub.Query.String()
		}
		for _, k := range sub.Kinds {
			j.Kinds = append(j.Kinds, k.String())
		}
		out = append(out, j)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleDeleteSubscription(w http.ResponseWriter, r *http.Request) {
	if !s.pipeline.Alerter.Unsubscribe(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, "no such subscription")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

type alertJSON struct {
	Sub     string `json:"sub"`
	Doc     string `json:"doc"`
	Version int    `json:"version"`
	Kind    string `json:"kind"`
	Path    string `json:"path"`
	Detail  string `json:"detail"`
}

func toAlertJSON(a alert.Alert) alertJSON {
	return alertJSON{
		Sub: a.SubID, Doc: a.DocID, Version: a.Version,
		Kind: a.Kind.String(), Path: a.Path, Detail: a.String(),
	}
}

// maxFollow bounds how long an alert stream stays open.
const maxFollow = 5 * time.Minute

// streamChunk is how many alerts a stream copies out of the log at a
// time.
const streamChunk = 64

// handleGetAlerts serves the recorded alerts for one document; with
// ?follow=DURATION it instead streams the document's later alerts as
// newline-delimited JSON, read from the alert log by cursor.
func (s *Server) handleGetAlerts(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	follow := r.URL.Query().Get("follow")
	if follow == "" {
		out := []alertJSON{}
		for _, a := range s.alertLog.forDoc(id) {
			out = append(out, toAlertJSON(a))
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	dur, err := time.ParseDuration(follow)
	if err != nil || dur <= 0 {
		writeError(w, http.StatusBadRequest, "follow must be a positive duration, e.g. 30s")
		return
	}
	if dur > maxFollow {
		dur = maxFollow
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}

	// The cursor is taken before the 200, so every alert raised after
	// the client saw it is past the cursor. A consumer that reads slower
	// than they arrive loses what the log trims before it reads it, and
	// the loss is accounted in xydiffd_alert_stream_dropped_total rather
	// than stalling the diff path or growing memory.
	docLog, cursor := s.alertLog.follow(id)
	var dropped int
	defer func() {
		s.alertLog.unfollow(id, docLog)
		if dropped > 0 {
			s.metrics.addStreamDropped(dropped)
			s.log.Warn("alert stream dropped", "doc", id, "dropped", dropped)
		}
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()
	enc := json.NewEncoder(w)
	deadline := time.NewTimer(dur)
	defer deadline.Stop()
	buf := make([]alert.Alert, streamChunk)
	for {
		n, lost, more := s.alertLog.since(docLog, cursor, buf)
		cursor += lost + n
		dropped += lost
		for _, a := range buf[:n] {
			if err := enc.Encode(toAlertJSON(a)); err != nil {
				return
			}
		}
		if n > 0 {
			flusher.Flush()
		}
		// more is ready at once while the stream is behind, so a stream
		// that never catches up still sees its deadline and its end.
		select {
		case <-more:
		case <-deadline.C:
			return
		case <-r.Context().Done():
			return
		case <-s.streamsEnd:
			return
		}
	}
}

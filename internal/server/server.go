// Package server exposes the Xyleme change-control pipeline — the
// paper's crawler → repository → diff → delta storage → alerter loop
// (Figure 1) — as a long-lived HTTP service. Installing a document
// version computes and stores the completed delta; any past version is
// reconstructible over HTTP; deltas (single or aggregated) are served
// as delta-XML; subscriptions raise alerts that can be polled or
// streamed. The server is production-shaped: diff work runs on a
// bounded worker pool with explicit backpressure, requests carry
// deadlines that propagate into the diff phases, and everything is
// observable through structured logs and a Prometheus /metrics
// endpoint.
package server

import (
	"cmp"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/crawl"
	"xydiff/internal/dom"
	"xydiff/internal/retry"
	"xydiff/internal/stats"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
	"xydiff/internal/warehouse"
)

// Config tunes the server. The zero value picks production defaults.
type Config struct {
	// RequestTimeout bounds one request end to end, diff included
	// (default 30s). Alert streaming is exempt.
	RequestTimeout time.Duration
	// MaxBodyBytes caps an uploaded document version (default 16 MiB).
	MaxBodyBytes int64
	// Logger receives structured request and lifecycle logs (default
	// slog.Default).
	Logger *slog.Logger

	// workers, queueDepth and parseLimits, when set, replace the diff
	// pool's GOMAXPROCS workers, its diffQueueDepth and the parse
	// bounds. Only this package's tests set them, to reach a pool of
	// one that sheds or a document over a small bound.
	workers, queueDepth int
	parseLimits         dom.ParseLimits
}

const (
	// diffQueueDepth bounds diff jobs waiting for a worker; a
	// submission beyond it is shed with 503.
	diffQueueDepth = 64
	// maxParseDepth and maxParseTokens bound every uploaded or crawled
	// document's element nesting and XML token count.
	maxParseDepth  = 1000
	maxParseTokens = 1_000_000
)

func (c Config) withDefaults() Config {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// Server is the xydiffd HTTP service over one store.
type Server struct {
	cfg      Config
	store    *vstore.Store
	pipeline warehouse.Pipeline // statistics and alerter; the index is the library's
	metrics  *Metrics
	pool     *pool
	alertLog *alertLog
	log      *slog.Logger
	handler  http.Handler
	started  time.Time

	// streamsEnd is closed, once, by EndStreams; every alert stream
	// returns when it is.
	streamsEnd chan struct{}
	endStreams sync.Once

	// shedBackoff grows the Retry-After hint while the diff queue keeps
	// rejecting submissions and resets once one gets through, so a
	// saturated server spreads its retry traffic instead of inviting it
	// all back one second later.
	shedBackoff *retry.Backoff

	// crawler is the optional embedded acquisition layer (EnableCrawl);
	// nil when the server only ingests over HTTP PUT.
	crawler *crawl.Crawler
}

// shedPolicy paces the Retry-After hints of shed versions.
var shedPolicy = retry.Policy{Base: time.Second, Max: 30 * time.Second}

// New wires a server around st, which may be a store without a
// directory. It installs the store's observer hook, so st must not have
// another observer; the server should be the only writer-side consumer
// of the store from here on.
func New(st *vstore.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:         cfg,
		store:       st,
		pipeline:    warehouse.Pipeline{Alerter: alert.New(), Stats: stats.NewCollector()},
		metrics:     newMetrics(),
		pool:        newPool(cmp.Or(cfg.workers, runtime.GOMAXPROCS(0)), cmp.Or(cfg.queueDepth, diffQueueDepth)),
		alertLog:    newAlertLog(alertLogSize),
		streamsEnd:  make(chan struct{}),
		log:         cfg.Logger,
		started:     time.Now(),
		shedBackoff: retry.New(shedPolicy, time.Now().UnixNano()),
	}
	st.SetObserver(s.observe)
	s.handler = s.routes()
	return s
}

// Handler returns the fully middleware-wrapped HTTP handler.
func (s *Server) Handler() http.Handler { return s.handler }

// Alerter exposes the subscription system, for in-process callers that
// subscribe alongside the HTTP endpoints.
func (s *Server) Alerter() *alert.Alerter { return s.pipeline.Alerter }

// Metrics exposes the server's own counters to in-process callers such
// as tests and benchmarks; /metrics renders them.
func (s *Server) Metrics() *Metrics { return s.metrics }

// Close drains the diff worker pool: queued jobs run to completion and
// new submissions fail with ErrClosed. Call after the HTTP listener has
// stopped accepting requests.
func (s *Server) Close() { s.pool.close() }

// EndStreams ends every alert stream, open or opened later: each writes
// what it has read and completes its body. Register it with
// http.Server.RegisterOnShutdown, or Shutdown waits for every stream's
// follow duration to run out.
func (s *Server) EndStreams() { s.endStreams.Do(func() { close(s.streamsEnd) }) }

// observe is the store's observer hook: it runs on the PUT's worker
// goroutine under the document's write lock, in version order, once
// per successful versioning diff, after the version is durable. It
// records the diff's phase times, hands the version to the pipeline
// (statistics, then alerts) and logs the alerts raised. Alerts name
// their op by version, kind and XID, so the log pins nothing of the
// trees or the delta.
func (s *Server) observe(o store.Observation) {
	r := o.Result
	s.metrics.observeDiff(r.Matcher, [5]time.Duration{
		r.Timings.Phase1, r.Timings.Phase2, r.Timings.Phase3, r.Timings.Phase4, r.Timings.Phase5,
	})
	alerts := s.pipeline.Observe(o)
	if len(alerts) > 0 {
		s.alertLog.add(alerts)
		s.metrics.addAlerts(len(alerts))
	}
}

// routes builds the endpoint table. Route names double as the metrics
// route label.
func (s *Server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /healthz", s.wrap("healthz", s.handleHealthz))
	mux.Handle("GET /metrics", s.wrap("metrics", s.handleMetrics))
	mux.Handle("GET /docs", s.wrap("docs_list", s.handleListDocs))
	mux.Handle("PUT /docs/{id}", s.wrap("doc_put", s.handlePutDoc))
	mux.Handle("GET /docs/{id}", s.wrap("doc_latest", s.handleGetLatest))
	mux.Handle("GET /docs/{id}/versions/{n}", s.wrap("doc_version", s.handleGetVersion))
	mux.Handle("GET /docs/{id}/deltas/{spec}", s.wrap("doc_delta", s.handleGetDelta))
	mux.Handle("GET /docs/{id}/alerts", s.wrapStreaming("doc_alerts", s.handleGetAlerts))
	mux.Handle("POST /subscriptions", s.wrap("sub_create", s.handleCreateSubscription))
	mux.Handle("GET /subscriptions", s.wrap("sub_list", s.handleListSubscriptions))
	mux.Handle("DELETE /subscriptions/{id}", s.wrap("sub_delete", s.handleDeleteSubscription))
	mux.Handle("POST /sources", s.wrap("src_create", s.handleCreateSource))
	mux.Handle("GET /sources", s.wrap("src_list", s.handleListSources))
	mux.Handle("GET /sources/{id}", s.wrap("src_get", s.handleGetSource))
	mux.Handle("DELETE /sources/{id}", s.wrap("src_delete", s.handleDeleteSource))
	return mux
}

// EnableCrawl attaches the acquisition layer: sources registered in reg
// are polled on the adaptive schedule and ingested under the same body
// bound (Config.MaxBodyBytes replaces cfg.MaxBodyBytes), parse limits
// and bounded diff pool as HTTP PUTs, and the /sources endpoints come
// alive. A source's change rate is learned from its fetches alone: a
// direct PUT to the same document does not train it. Call before the
// handler starts serving; the returned crawler still needs Run (the
// daemon owns its lifetime).
func (s *Server) EnableCrawl(reg *crawl.Registry, cfg crawl.Config) *crawl.Crawler {
	if cfg.Logger == nil {
		cfg.Logger = s.log
	}
	cfg.MaxBodyBytes = s.cfg.MaxBodyBytes
	s.crawler = crawl.New(reg, s.crawlIngest, cfg)
	return s.crawler
}

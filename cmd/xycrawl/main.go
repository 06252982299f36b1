// Command xycrawl is the standalone acquisition layer: it polls
// registered web sources on the adaptive change-rate schedule and feeds
// each fetched version to a running xydiffd over its HTTP API (PUT
// /docs/{id}), completing the paper's pipeline — crawler → repository →
// diff → delta storage → alerter — as two cooperating processes.
// Documents whose origin answers 304 never leave the crawler; only
// changed content costs a PUT (and thus a parse and a diff) on the
// daemon.
//
// Usage:
//
//	xycrawl -add news=https://example.com/feed.xml [flags]
//
//	-target   base URL of the xydiffd to feed (default http://127.0.0.1:8427)
//	-registry source registry file; loaded on start, saved on shutdown
//	          (default xycrawl-sources.json; "" = in-memory only)
//	-add      register source as id=url (repeatable; replaces same id)
//	-min / -max bounds of the adaptive revisit interval (defaults 15s / 1h)
//	-concurrency fetcher pool size (default min(GOMAXPROCS, 8))
//	-fetch-timeout per-fetch deadline (default 10s)
//	-status   how often to log a metrics snapshot (default 1m, 0 = never)
//
// The registry keeps each source's learned interval and HTTP validators
// across restarts, so a restarted crawler revalidates instead of
// re-downloading the world.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"xydiff/internal/crawl"
	"xydiff/internal/stats"
)

type config struct {
	target       string
	registry     string
	adds         []string
	min          time.Duration
	max          time.Duration
	concurrency  int
	fetchTimeout time.Duration
	status       time.Duration
	logger       *slog.Logger
}

func main() {
	var cfg config
	flag.StringVar(&cfg.target, "target", "http://127.0.0.1:8427", "base `URL` of the xydiffd to feed")
	flag.StringVar(&cfg.registry, "registry", "xycrawl-sources.json", "source registry `file` (\"\" = in-memory only)")
	flag.Func("add", "register source as `id=url` (repeatable)", func(v string) error {
		if !strings.Contains(v, "=") {
			return fmt.Errorf("want id=url, got %q", v)
		}
		cfg.adds = append(cfg.adds, v)
		return nil
	})
	flag.DurationVar(&cfg.min, "min", 0, "minimum revisit `interval` (0 = default 15s)")
	flag.DurationVar(&cfg.max, "max", 0, "maximum revisit `interval` (0 = default 1h)")
	flag.IntVar(&cfg.concurrency, "concurrency", 0, "fetcher pool size (0 = min(GOMAXPROCS, 8))")
	flag.DurationVar(&cfg.fetchTimeout, "fetch-timeout", 0, "per-fetch `deadline` (0 = default 10s)")
	flag.DurationVar(&cfg.status, "status", time.Minute, "status log `period` (0 = never)")
	flag.Parse()
	cfg.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "xycrawl:", err)
		os.Exit(1)
	}
}

// run crawls until ctx is canceled, then saves the registry.
func run(ctx context.Context, cfg config) error {
	if _, err := url.Parse(cfg.target); err != nil {
		return fmt.Errorf("parse -target: %w", err)
	}
	var reg *crawl.Registry
	var err error
	if cfg.registry == "" {
		reg = crawl.NewRegistry()
	} else if reg, err = crawl.OpenRegistry(cfg.registry); err != nil {
		return err
	}

	ing := &daemonIngester{target: strings.TrimSuffix(cfg.target, "/"), reg: reg}
	c := crawl.New(reg, ing.ingest, stats.NewCollector(), crawl.Config{
		MinInterval:  cfg.min,
		MaxInterval:  cfg.max,
		Concurrency:  cfg.concurrency,
		FetchTimeout: cfg.fetchTimeout,
		Logger:       cfg.logger,
	})
	for _, add := range cfg.adds {
		id, u, _ := strings.Cut(add, "=") // shape validated by flag.Func
		src, err := c.Add(crawl.Source{ID: id, URL: u})
		if err != nil {
			return err
		}
		cfg.logger.Info("source registered", "id", src.ID, "url", src.URL)
	}
	if reg.Len() == 0 {
		return fmt.Errorf("no sources: use -add id=url or point -registry at a saved registry")
	}
	cfg.logger.Info("xycrawl starting", "target", cfg.target, "sources", reg.Len())

	if cfg.status > 0 {
		go logStatus(ctx, c, cfg.logger, cfg.status)
	}
	if err := c.Run(ctx); err != nil {
		return err
	}
	if err := reg.Save(); err != nil {
		return fmt.Errorf("saving registry: %w", err)
	}
	snap := c.Metrics().Snapshot()
	cfg.logger.Info("xycrawl stopped",
		"fetches", snap.Fetches, "notModified", snap.NotModified,
		"ingests", snap.Ingests, "failures", snap.Failures)
	return nil
}

// logStatus periodically logs a metrics snapshot until ctx is canceled.
func logStatus(ctx context.Context, c *crawl.Crawler, log *slog.Logger, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			s := c.Metrics().Snapshot()
			log.Info("crawl status",
				"sources", s.Sources, "queue", s.QueueDepth,
				"fetches", s.Fetches, "notModified", s.NotModified,
				"ingests", s.Ingests, "retries", s.Retries,
				"failures", s.Failures, "openCircuits", s.OpenCircuits)
		}
	}
}

// daemonIngester hands fetched bodies to xydiffd, each with its
// source's registered matcher. The daemon's PUT response says whether
// the version changed anything; errors are returned verbatim and
// retried by the crawler (ingest failures count as transient).
type daemonIngester struct {
	target string
	reg    *crawl.Registry
}

func (d *daemonIngester) ingest(ctx context.Context, id string, body []byte) (bool, error) {
	u := d.target + "/docs/" + url.PathEscape(id)
	// Without ?matcher= the daemon diffs with its own default, so a page
	// registered as "sftm" would be diffed with BULD.
	if src, ok := d.reg.Get(id); ok && src.Matcher != "" {
		u += "?matcher=" + url.QueryEscape(src.Matcher)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, u, strings.NewReader(string(body)))
	if err != nil {
		return false, fmt.Errorf("build PUT %s: %w", u, err)
	}
	req.Header.Set("Content-Type", "application/xml")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, fmt.Errorf("PUT %s: %w", u, err)
	}
	defer func() { _ = resp.Body.Close() }() // best-effort; the read below saw every byte that matters
	payload, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return false, fmt.Errorf("read PUT %s response: %w", u, err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		err := fmt.Errorf("PUT %s: status %d: %s", u, resp.StatusCode, firstLine(payload))
		// A shedding daemon (ErrBusy → 503) names its own pacing via
		// Retry-After; surface it typed so the crawler's retry loop
		// honors the hint instead of its fixed backoff schedule.
		if resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests {
			if after := crawl.ParseRetryAfter(resp.Header.Get("Retry-After")); after > 0 {
				return false, &crawl.RetryAfterError{After: after, Err: err}
			}
		}
		return false, err
	}
	var out struct {
		Version  int `json:"version"`
		DeltaOps int `json:"deltaOps"`
	}
	if err := json.Unmarshal(payload, &out); err != nil {
		return false, fmt.Errorf("parse PUT %s response: %w", u, err)
	}
	return out.Version == 1 || out.DeltaOps > 0, nil
}

// firstLine trims an error payload to something log-friendly.
func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}

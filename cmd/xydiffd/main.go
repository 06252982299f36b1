// Command xydiffd is the networked change-control service: the Xyleme
// pipeline (crawler → diff → delta storage → alerter) behind an HTTP
// API. Clients PUT document versions; the daemon computes and stores
// completed deltas, reconstructs any past version, serves single or
// aggregated delta-XML, and raises subscription alerts (polled or
// streamed as NDJSON).
//
// Usage:
//
//	xydiffd [flags]
//
//	-addr    listen address (default :8427)
//	-dir     data directory; loaded on start, flushed on shutdown
//	         (default xydiffd-data)
//	-journal-sync journal fsync policy: always, interval (every
//	         100ms) or off (default always)
//	-timeout per-request deadline, diff included (default 30s)
//	-max-body largest accepted document version in bytes, PUT or
//	         crawled (default 16 MiB)
//	-version-cache materialized document versions kept in memory
//	         (default 4096)
//	-matcher default diff matcher: buld (the paper's, default) or
//	         sftm; overridable per PUT with ?matcher= and per source
//	-crawl   enable the acquisition layer: sources registered via the
//	         /sources API are polled on the adaptive schedule and fed
//	         through the same parse/diff pipeline as PUTs
//	-crawl-min minimum revisit interval (default 15s)
//	-crawl-max maximum revisit interval, above -crawl-min (default 1h)
//	-scrub-interval background integrity scrub period (default 0,
//	         no background scrub)
//	-degraded-open tolerate corrupt files at startup: quarantine them
//	         and serve the affected documents degraded
//
// A negative value, or a -crawl-max not above the -crawl-min in
// effect, stops the daemon before it opens -dir.
//
// Storage is the sharded, group-committed engine (internal/vstore):
// documents hash onto the segment logs of 16 shards (a directory keeps
// the count it was created with), concurrent PUTs to one shard share a
// single fsync, and a background compactor folds cold segments into
// per-document snapshots. Every PUT is appended to its shard's segment
// before it is acknowledged; under -journal-sync=always an
// acknowledged version survives kill -9, which the acceptance suite
// tests on a live daemon. Power loss is not tested, and no directory
// is fsynced; ROADMAP.md's item 28 is the work that will test it. Startup
// replays the segments on top of the last snapshots (truncating torn
// tails, refusing corruption with an error that names the file and
// offset). A data directory from a pre-shard build is refused with a
// pointer at `xystore migrate`. On SIGINT/SIGTERM the daemon stops
// accepting requests, ends open alert streams, lets in-flight diffs
// finish, checkpoints the store to -dir with crash-safe renames and
// retires the replayed segments, so a restarted daemon serves every
// stored version.
package main

import (
	"cmp"
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/server"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

type config struct {
	addr         string
	dir          string
	journalSync  string
	server       server.Config
	logger       *slog.Logger
	diffMatcher  string
	versionCache int
	degradedOpen bool

	crawl    bool
	crawlMin time.Duration
	crawlMax time.Duration

	scrubInterval time.Duration
}

// newFlagSet registers every xydiffd flag on a fresh set that parses
// into cfg. Each flag names an operator decision; DESIGN.md ("A daemon
// with fewer knobs") says which.
func newFlagSet(cfg *config) *flag.FlagSet {
	fs := flag.NewFlagSet("xydiffd", flag.ExitOnError)
	fs.StringVar(&cfg.addr, "addr", ":8427", "listen `address`")
	fs.StringVar(&cfg.dir, "dir", "xydiffd-data", "data `directory` (loaded on start, flushed on shutdown)")
	fs.StringVar(&cfg.journalSync, "journal-sync", "always", "journal fsync `policy`: always, interval (every 100ms) or off")
	fs.DurationVar(&cfg.server.RequestTimeout, "timeout", 0, "per-request `deadline` (0 = default 30s)")
	fs.Int64Var(&cfg.server.MaxBodyBytes, "max-body", 0, "max document `bytes` per PUT or crawled fetch (0 = default 16MiB)")
	fs.IntVar(&cfg.versionCache, "version-cache", 0, "materialized document versions kept in memory (0 = default 4096)")
	fs.StringVar(&cfg.diffMatcher, "matcher", "", "default diff `matcher`: buld (the paper's, default) or sftm (similarity-based, for real-web HTML); overridable per PUT with ?matcher= and per crawl source")
	fs.BoolVar(&cfg.crawl, "crawl", false, "enable the crawler (sources registered via /sources)")
	fs.DurationVar(&cfg.crawlMin, "crawl-min", 0, "minimum revisit `interval` (0 = default 15s)")
	fs.DurationVar(&cfg.crawlMax, "crawl-max", 0, "maximum revisit `interval`, above -crawl-min (0 = default 1h)")
	fs.DurationVar(&cfg.scrubInterval, "scrub-interval", 0, "background integrity scrub `period` (0 disables the scrubber)")
	fs.BoolVar(&cfg.degradedOpen, "degraded-open", false, "tolerate corrupt files at startup: quarantine them and serve the affected documents degraded instead of refusing to start")
	return fs
}

func main() {
	var cfg config
	_ = newFlagSet(&cfg).Parse(os.Args[1:]) // ExitOnError: a bad flag exits
	cfg.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg.server.Logger = cfg.logger

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "xydiffd:", err)
		os.Exit(1)
	}
}

// check refuses the flag values that would otherwise be rewritten
// without a word: a negative duration, size or count, where zero means
// the default, and a -crawl-max at or below the -crawl-min in effect,
// which the crawler would widen to an hour.
func (cfg config) check() error {
	for _, f := range []struct {
		name     string
		negative bool
	}{
		{"-timeout", cfg.server.RequestTimeout < 0},
		{"-max-body", cfg.server.MaxBodyBytes < 0},
		{"-version-cache", cfg.versionCache < 0},
		{"-crawl-min", cfg.crawlMin < 0},
		{"-crawl-max", cfg.crawlMax < 0},
		{"-scrub-interval", cfg.scrubInterval < 0},
	} {
		if f.negative {
			return fmt.Errorf("%s: must not be negative", f.name)
		}
	}
	lo := cmp.Or(cfg.crawlMin, crawl.DefaultMinInterval)
	if hi := cmp.Or(cfg.crawlMax, crawl.DefaultMaxInterval); hi <= lo {
		return fmt.Errorf("-crawl-max %v: must be above -crawl-min %v", hi, lo)
	}
	return nil
}

// run brings the daemon up, serves until ctx is canceled, then shuts
// down gracefully: listener closed, in-flight requests drained, worker
// pool flushed, store saved to cfg.dir. ready, if non-nil, is called
// with the bound address once the listener accepts connections (tests
// pass -addr 127.0.0.1:0 and dial what they get back).
func run(ctx context.Context, cfg config, ready func(addr string)) error {
	if err := cfg.check(); err != nil {
		return err
	}
	if cfg.journalSync == "" {
		cfg.journalSync = "always"
	}
	policy, err := store.ParseSyncPolicy(cfg.journalSync)
	if err != nil {
		return err
	}
	matcher, err := diff.ParseMatcher(cfg.diffMatcher)
	if err != nil {
		return err
	}
	st, err := vstore.Open(cfg.dir, diff.Options{Matcher: matcher}, vstore.Config{
		Sync:         policy,
		CacheSize:    cfg.versionCache,
		OpenDegraded: cfg.degradedOpen,
		Scrub:        vstore.ScrubConfig{Interval: cfg.scrubInterval},
	})
	if errors.Is(err, vstore.ErrNeedsMigration) {
		return fmt.Errorf("%s holds a pre-shard data layout: run `xystore -dir %s migrate` once, then restart (%w)", cfg.dir, cfg.dir, err)
	}
	if err != nil {
		return err
	}
	rec := st.RecoveryStats()
	srv := server.New(st, cfg.server)

	// The crawler persists its source registry next to the store, so a
	// restarted daemon resumes with the learned schedules and validators.
	var reg *crawl.Registry
	crawlDone := make(chan struct{})
	close(crawlDone) // replaced when crawling is enabled
	if cfg.crawl {
		reg, err = crawl.OpenRegistry(filepath.Join(cfg.dir, "crawl-sources.json"))
		if err != nil {
			return err
		}
		crawler := srv.EnableCrawl(reg, crawl.Config{
			MinInterval: cfg.crawlMin,
			MaxInterval: cfg.crawlMax,
			Logger:      cfg.logger,
		})
		crawlDone = make(chan struct{})
		go func() {
			defer close(crawlDone)
			if err := crawler.Run(ctx); err != nil {
				cfg.logger.Error("crawler", "err", err)
			}
		}()
		cfg.logger.Info("crawler enabled", "sources", reg.Len())
	}

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
	}
	// Shutdown waits for every handler; alert streams would hold it for
	// their whole follow duration.
	hs.RegisterOnShutdown(srv.EndStreams)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	cfg.logger.Info("xydiffd listening",
		"addr", ln.Addr().String(), "dir", cfg.dir,
		"documents", len(st.IDs()),
		"journalSync", policy.String(),
		"snapshotVersions", rec.SnapshotVersions,
		"journalRecords", rec.JournalRecords,
		"tornTails", rec.TornTails,
		"quarantined", rec.Quarantined,
		"degradedDocs", rec.DegradedDocs,
		"scrubInterval", cfg.scrubInterval.String())
	if ready != nil {
		ready(ln.Addr().String())
	}

	select {
	case err := <-errc:
		return err // listener failed outright
	case <-ctx.Done():
	}

	cfg.logger.Info("shutting down")
	// The serve ctx is already canceled here; the shutdown deadline must
	// come from a fresh context or Shutdown would abort immediately.
	//xyvet:allow ctxflow -- graceful-shutdown context must outlive the canceled serve ctx
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutCtx); err != nil {
		cfg.logger.Error("shutdown", "err", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		cfg.logger.Error("serve", "err", err)
	}
	<-crawlDone // fetchers stopped: no more ingests can reach the pool
	if reg != nil {
		if err := reg.Save(); err != nil {
			cfg.logger.Error("saving crawl registry", "err", err)
		}
	}
	srv.Close() // drain queued diffs so the checkpoint below sees them all
	if err := st.Checkpoint(); err != nil {
		return fmt.Errorf("checkpointing store: %w", err)
	}
	if err := st.Close(); err != nil {
		return fmt.Errorf("closing store: %w", err)
	}
	cfg.logger.Info("store checkpointed", "dir", cfg.dir, "documents", len(st.IDs()))
	return nil
}

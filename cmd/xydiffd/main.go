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
//	-workers diff worker pool size (default GOMAXPROCS)
//	-queue   queued diffs before requests are shed with 503 (default 64)
//	-timeout per-request deadline, diff included (default 30s)
//	-max-body largest accepted document version in bytes, PUT or
//	         crawled (default 16 MiB)
//	-journal-sync journal fsync policy: always, interval or off
//	         (default always)
//	-journal-sync-interval flush period under -journal-sync=interval
//	         (default 100ms)
//	-store-shards number of storage shards for a fresh data directory
//	         (existing directories keep their manifest's count;
//	         default 16)
//	-fsync-batch max Puts folded into one group-committed fsync
//	         (default 128)
//	-fsync-delay how long a commit may linger for more writers to
//	         join its batch (default 2ms)
//	-version-cache materialized document versions kept in memory
//	         (default 4096)
//	-crawl   enable the acquisition layer: sources registered via the
//	         /sources API are polled on the adaptive schedule and fed
//	         through the same parse/diff pipeline as PUTs
//	-crawl-min / -crawl-max bounds of the adaptive revisit interval
//	         (defaults 15s / 1h)
//	-crawl-concurrency fetcher pool size (default min(GOMAXPROCS, 8))
//
// Storage is the sharded, group-committed engine (internal/vstore):
// documents hash onto -store-shards segment logs, concurrent PUTs to
// one shard share a single fsync, and a background compactor folds
// cold segments into per-document snapshots. Every PUT is appended to
// its shard's segment before it is acknowledged; under
// -journal-sync=always an acknowledged version survives even kill -9
// or power loss. Startup replays the segments on top of the last
// snapshots (truncating torn tails, refusing corruption with an error
// that names the file and offset). A data directory from a pre-shard
// build is refused with a pointer at `xystore migrate`. On
// SIGINT/SIGTERM the daemon stops accepting requests, ends open alert
// streams, lets in-flight diffs finish, checkpoints the store to -dir
// with crash-safe renames and retires the replayed segments, so a
// restarted daemon serves every stored version.
package main

import (
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
	syncInterval time.Duration
	server       server.Config
	logger       *slog.Logger

	diffMatcher  string
	storeShards  int
	fsyncBatch   int
	fsyncDelay   time.Duration
	versionCache int

	crawl            bool
	crawlMin         time.Duration
	crawlMax         time.Duration
	crawlConcurrency int

	scrubInterval time.Duration
	scrubThrottle int64
	scrubNoRepair bool
	degradedOpen  bool
}

func main() {
	var cfg config
	flag.StringVar(&cfg.addr, "addr", ":8427", "listen `address`")
	flag.StringVar(&cfg.dir, "dir", "xydiffd-data", "data `directory` (loaded on start, flushed on shutdown)")
	flag.IntVar(&cfg.server.Workers, "workers", 0, "diff worker pool size (0 = GOMAXPROCS)")
	flag.StringVar(&cfg.diffMatcher, "matcher", "", "default diff `matcher`: buld (the paper's, default) or sftm (similarity-based, for real-web HTML); overridable per PUT with ?matcher= and per crawl source")
	flag.IntVar(&cfg.server.QueueDepth, "queue", 0, "max queued diffs before shedding (0 = default 64)")
	flag.DurationVar(&cfg.server.RequestTimeout, "timeout", 0, "per-request `deadline` (0 = default 30s)")
	flag.Int64Var(&cfg.server.MaxBodyBytes, "max-body", 0, "max document `bytes` per PUT or crawled fetch (0 = default 16MiB)")
	flag.StringVar(&cfg.journalSync, "journal-sync", "always", "journal fsync `policy`: always, interval or off")
	flag.DurationVar(&cfg.syncInterval, "journal-sync-interval", 100*time.Millisecond, "flush `period` under -journal-sync=interval")
	flag.IntVar(&cfg.storeShards, "store-shards", 0, "storage shard count for a fresh directory (0 = default 16; existing directories keep their manifest's count)")
	flag.IntVar(&cfg.fsyncBatch, "fsync-batch", 0, "max Puts per group-committed fsync (0 = default 128)")
	flag.DurationVar(&cfg.fsyncDelay, "fsync-delay", 0, "group-commit linger `window` for more writers to join a batch (0 = default 2ms)")
	flag.IntVar(&cfg.versionCache, "version-cache", 0, "materialized document versions kept in memory (0 = default 4096)")
	flag.BoolVar(&cfg.crawl, "crawl", false, "enable the crawler (sources registered via /sources)")
	flag.DurationVar(&cfg.crawlMin, "crawl-min", 0, "minimum revisit `interval` (0 = default 15s)")
	flag.DurationVar(&cfg.crawlMax, "crawl-max", 0, "maximum revisit `interval` (0 = default 1h)")
	flag.IntVar(&cfg.crawlConcurrency, "crawl-concurrency", 0, "fetcher pool size (0 = min(GOMAXPROCS, 8))")
	flag.DurationVar(&cfg.scrubInterval, "scrub-interval", 0, "background integrity scrub `period` (0 disables the scrubber)")
	flag.Int64Var(&cfg.scrubThrottle, "scrub-throttle", 0, "scrub read ceiling in `bytes` per second (0 = default 8MiB/s, negative = unthrottled)")
	flag.BoolVar(&cfg.scrubNoRepair, "scrub-no-repair", false, "quarantine every corruption instead of repairing from resident data")
	flag.BoolVar(&cfg.degradedOpen, "degraded-open", false, "tolerate corrupt files at startup: quarantine them and serve the affected documents degraded instead of refusing to start")
	flag.Parse()
	cfg.logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	cfg.server.Logger = cfg.logger

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "xydiffd:", err)
		os.Exit(1)
	}
}

// run brings the daemon up, serves until ctx is canceled, then shuts
// down gracefully: listener closed, in-flight requests drained, worker
// pool flushed, store saved to cfg.dir. ready, if non-nil, is called
// with the bound address once the listener accepts connections (tests
// pass -addr 127.0.0.1:0 and dial what they get back).
func run(ctx context.Context, cfg config, ready func(addr string)) error {
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
		Shards:       cfg.storeShards,
		Sync:         policy,
		SyncInterval: cfg.syncInterval,
		MaxBatch:     cfg.fsyncBatch,
		MaxDelay:     cfg.fsyncDelay,
		CacheSize:    cfg.versionCache,
		OpenDegraded: cfg.degradedOpen,
		Scrub: vstore.ScrubConfig{
			Interval: cfg.scrubInterval,
			Throttle: cfg.scrubThrottle,
			NoRepair: cfg.scrubNoRepair,
		},
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
			Concurrency: cfg.crawlConcurrency,
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

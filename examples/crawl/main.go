// Crawl demonstrates the acquisition layer — the first box of the
// paper's Figure 1 — end to end in one process: a deterministic
// changesim origin plays the changing web, the daemon's crawler polls
// it on the adaptive change-rate schedule, and every changed document
// flows through the daemon's parse limits, diff pool and versioned
// store, raising alerts for a catch-all subscription on the way.
//
// Three sources make the adaptive policy visible: one document mutates
// every epoch (the crawler converges to the minimum interval), one
// mutates occasionally, and one never changes (the crawler backs off to
// the maximum interval and revalidates with conditional GETs that cost
// no parse and no diff).
//
//	go run ./examples/crawl            # ~5 seconds
//	go run ./examples/crawl -epochs 40
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http/httptest"
	"strings"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/changesim"
	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/server"
	"xydiff/internal/vstore"
)

func main() {
	epochs := flag.Int("epochs", 50, "simulation epochs (the origin mutates each epoch)")
	flag.Parse()

	// The changing web: three documents behind correct HTTP
	// revalidation (ETag / Last-Modified, 304s for unchanged content),
	// each served from its own host:port, since the crawler spaces the
	// requests to one host.
	origin, err := changesim.ServeCorpus(2002, 3)
	if err != nil {
		log.Fatal(err)
	}
	paths := origin.Paths()

	// The repository: xydiffd's server over a versioned store kept in
	// memory (no directory); every new version is diffed against its
	// predecessor, and one subscription alerts on every change.
	st, err := vstore.Open("", diff.Options{}, vstore.Config{})
	if err != nil {
		log.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	srv := server.New(st, server.Config{Logger: quiet})
	defer srv.Close()
	srv.Alerter().Subscribe(alert.Subscription{ID: "all"})
	c := srv.EnableCrawl(crawl.NewRegistry(), crawl.Config{
		MinInterval: 150 * time.Millisecond,
		MaxInterval: 1200 * time.Millisecond,
		Logger:      quiet,
	})
	for i, name := range []string{"fast", "medium", "static"} {
		ts := httptest.NewServer(origin)
		defer ts.Close()
		if _, err := c.Add(crawl.Source{ID: name, URL: ts.URL + paths[i]}); err != nil {
			log.Fatal(err)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := c.Run(ctx); err != nil {
			log.Print(err)
		}
	}()

	fmt.Printf("crawling 3 sources for %d epochs (~%v)...\n", *epochs, time.Duration(*epochs)*100*time.Millisecond)
	for e := 0; e < *epochs; e++ {
		time.Sleep(100 * time.Millisecond)
		// fast mutates every epoch, medium every eighth, static never.
		if err := origin.Mutate(paths[0]); err != nil {
			log.Fatal(err)
		}
		if e%8 == 7 {
			if err := origin.Mutate(paths[1]); err != nil {
				log.Fatal(err)
			}
		}
	}
	cancel()
	<-done

	fmt.Printf("\n%-8s %9s %8s %8s %8s %10s %7s\n",
		"source", "interval", "fetches", "304s", "changes", "changeRate", "stored")
	for _, s := range c.Registry().List() {
		fmt.Printf("%-8s %9s %8d %8d %8d %10.2f %7d\n",
			s.ID, s.Interval.Round(10*time.Millisecond), s.Fetches, s.NotModified,
			s.Changes, s.ChangeRate, st.Versions(s.ID))
	}
	snap := c.Metrics().Snapshot()
	fmt.Printf("\ntotals: %d fetches, %d answered 304 (%.0f%% skipped parse+diff), %d ingests, %d KB downloaded\n",
		snap.Fetches, snap.NotModified,
		100*float64(snap.NotModified)/float64(max64(snap.Fetches, 1)),
		snap.Ingests, snap.FetchedBytes/1024)
	fmt.Println(alertsLine(srv))
	fmt.Println("\nthe fast source converged toward the minimum interval, the static one")
	fmt.Println("toward the maximum — change rate drives the revisit schedule.")
}

// alertsLine is the alert counter from the daemon's own /metrics.
func alertsLine(srv *server.Server) string {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.HasPrefix(line, "xydiffd_alerts_total ") {
			return "alerts raised: " + strings.TrimPrefix(line, "xydiffd_alerts_total ")
		}
	}
	return "alerts raised: unknown"
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

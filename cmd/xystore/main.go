// Command xystore is a small change-centric XML warehouse on disk: the
// Xyleme architecture of the paper's Figure 1 as a CLI. Documents are
// stored as their latest version plus the chain of completed deltas;
// any past version is reconstructible, and the delta chain is
// queryable.
//
// The warehouse is an internal/vstore directory (MANIFEST.json plus
// sharded segment logs); a fresh directory is created that way. A
// directory in the older per-document layout is refused by every
// command except `migrate`, which converts it in place (the original
// is kept as DIR.pre-migrate).
//
// Usage:
//
//	xystore -dir DIR put ID FILE        install a new version of ID
//	xystore -dir DIR ids                list stored documents
//	xystore -dir DIR log ID             one line per version
//	xystore -dir DIR cat ID [N]         print version N (default latest)
//	xystore -dir DIR delta ID N         print the delta version N -> N+1
//	xystore -dir DIR aggregate ID A B   print the combined delta A -> B
//	xystore -dir DIR value ID EXPR      xpathlite value, every version
//	xystore -dir DIR history ID XID     node XID's path and value, every version
//	xystore -dir DIR grep ID A B EXPR   ops between A and B matching EXPR
//	xystore -dir DIR inspect            shard / segment / snapshot / cache summary
//	xystore -dir DIR compact            fold segment logs into compressed snapshots
//	xystore -dir DIR migrate [SHARDS]   convert an old layout in place
//	xystore -dir DIR scrub [-once] [-repair]
//	                                    verify every checksum; quarantine
//	                                    (and with -repair rewrite) damage
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"time"

	"xydiff/internal/diff"
	"xydiff/internal/dom/domio"
	"xydiff/internal/scrub"
	"xydiff/internal/vstore"
	"xydiff/internal/xpathlite"
)

func main() {
	dir := flag.String("dir", "xystore-data", "warehouse `directory`")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: xystore -dir DIR put|ids|log|cat|delta|aggregate|value|history|grep|inspect|compact|migrate|scrub ...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*dir, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "xystore:", err)
		os.Exit(1)
	}
}

// loadOrEmpty opens the warehouse at dir, creating it when absent. A
// directory in the old per-document layout is refused with
// vstore.ErrNeedsMigration, whose message names `xystore migrate`.
func loadOrEmpty(dir string) (*vstore.Store, error) {
	return vstore.Open(dir, diff.Options{}, vstore.Config{})
}

func run(dir string, args []string) error {
	cmd, rest := args[0], args[1:]
	// migrate rewrites the directory layout itself, so it runs before
	// any engine has the directory open.
	if cmd == "migrate" {
		return runMigrate(dir, rest)
	}
	// scrub opens the directory its own way (tolerating the damage it
	// exists to handle), so it also bypasses exec.
	if cmd == "scrub" {
		return runScrub(dir, rest)
	}
	s, err := loadOrEmpty(dir)
	if err != nil {
		return err
	}
	err = exec(s, cmd, rest)
	// Close flushes whatever the command wrote, so its error is part of
	// the command's outcome.
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

func exec(s *vstore.Store, cmd string, rest []string) error {
	switch cmd {
	case "put":
		if len(rest) != 2 {
			return fmt.Errorf("put needs ID FILE")
		}
		doc, err := domio.ParseFile(rest[1])
		if err != nil {
			return err
		}
		v, d, err := s.Put(rest[0], doc)
		if err != nil {
			return err
		}
		if d == nil {
			fmt.Printf("%s: version %d (initial)\n", rest[0], v)
		} else {
			fmt.Printf("%s: version %d, delta %d bytes (%s)\n", rest[0], v, d.Size(), d.Count())
		}
		return nil
	case "ids":
		for _, id := range s.IDs() {
			fmt.Printf("%s\t%d versions\n", id, s.Versions(id))
		}
		return nil
	case "log":
		if len(rest) != 1 {
			return fmt.Errorf("log needs ID")
		}
		id := rest[0]
		n := s.Versions(id)
		if n == 0 {
			return fmt.Errorf("unknown document %q", id)
		}
		for v := 1; v <= n; v++ {
			doc, err := s.Version(id, v)
			if err != nil {
				return err
			}
			line := fmt.Sprintf("v%d\t%d bytes", v, len(doc.String()))
			if v > 1 {
				d, err := s.Aggregate(id, v-1, v)
				if err != nil {
					return err
				}
				line += "\t" + d.Count().String()
			}
			fmt.Println(line)
		}
		return nil
	case "cat":
		if len(rest) < 1 {
			return fmt.Errorf("cat needs ID [N]")
		}
		id := rest[0]
		v := s.Versions(id)
		if v == 0 {
			return fmt.Errorf("unknown document %q", id)
		}
		if len(rest) == 2 {
			var err error
			if v, err = strconv.Atoi(rest[1]); err != nil {
				return fmt.Errorf("bad version %q", rest[1])
			}
		}
		doc, err := s.Version(id, v)
		if err != nil {
			return err
		}
		_, err = doc.WriteTo(os.Stdout)
		fmt.Println()
		return err
	case "delta":
		if len(rest) != 2 {
			return fmt.Errorf("delta needs ID N")
		}
		n, err := strconv.Atoi(rest[1])
		if err != nil {
			return fmt.Errorf("bad version %q", rest[1])
		}
		d, err := s.Aggregate(rest[0], n, n+1)
		if err != nil {
			return err
		}
		_, err = d.WriteTo(os.Stdout)
		fmt.Println()
		return err
	case "aggregate":
		if len(rest) != 3 {
			return fmt.Errorf("aggregate needs ID A B")
		}
		a, err1 := strconv.Atoi(rest[1])
		b, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad version range %q %q", rest[1], rest[2])
		}
		d, err := s.Aggregate(rest[0], a, b)
		if err != nil {
			return err
		}
		_, err = d.WriteTo(os.Stdout)
		fmt.Println()
		return err
	case "value":
		if len(rest) != 2 {
			return fmt.Errorf("value needs ID EXPR")
		}
		expr, err := xpathlite.Compile(rest[1])
		if err != nil {
			return err
		}
		tl, err := s.Timeline(rest[0], expr)
		if err != nil {
			return err
		}
		for _, vv := range tl {
			if vv.Found {
				fmt.Printf("v%d\t%s\n", vv.Version, vv.Value)
			} else {
				fmt.Printf("v%d\t(absent)\n", vv.Version)
			}
		}
		return nil
	case "history":
		return runHistory(os.Stdout, s, rest)
	case "grep":
		if len(rest) != 4 {
			return fmt.Errorf("grep needs ID A B EXPR")
		}
		a, err1 := strconv.Atoi(rest[1])
		b, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad version range %q %q", rest[1], rest[2])
		}
		expr, err := xpathlite.Compile(rest[3])
		if err != nil {
			return err
		}
		hits, err := s.ChangesMatching(rest[0], a, b, expr)
		if err != nil {
			return err
		}
		for _, h := range hits {
			fmt.Printf("v%d\t%s\t%s\n", h.Version, h.Op.Kind, h.Path)
		}
		return nil
	case "inspect":
		return runInspect(os.Stdout, s)
	case "compact":
		before := s.StorageStats()
		if err := s.Checkpoint(); err != nil {
			return err
		}
		after := s.StorageStats()
		fmt.Printf("compacted %d shards: %d segments -> %d, %d documents snapshotted\n",
			after.Shards, before.Segments, after.Segments, after.Documents)
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// runHistory prints where the node with a persistent identifier lives,
// and what it holds, at every version of a document: the paper's
// "querying the past" by XID. A version without the node reads
// "(absent)".
func runHistory(w io.Writer, s *vstore.Store, rest []string) error {
	if len(rest) != 2 {
		return fmt.Errorf("history needs ID XID")
	}
	x, err := strconv.ParseInt(rest[1], 10, 64)
	if err != nil {
		return fmt.Errorf("bad XID %q", rest[1])
	}
	hist, err := s.NodeHistory(rest[0], x)
	if err != nil {
		return err
	}
	for _, ns := range hist {
		if ns.Present {
			fmt.Fprintf(w, "v%d\t%s\t%s\n", ns.Version, ns.Path, ns.Value)
		} else {
			fmt.Fprintf(w, "v%d\t(absent)\n", ns.Version)
		}
	}
	return nil
}

// runInspect prints the storage summary: the shard / segment /
// snapshot / group-commit / cache breakdown the daemon exports on
// /healthz.
func runInspect(w io.Writer, s *vstore.Store) error {
	ss := s.StorageStats()
	fmt.Fprintf(w, "layout\tsharded segment logs (%s)\n", ss.Format)
	fmt.Fprintf(w, "shards\t%d\n", ss.Shards)
	fmt.Fprintf(w, "documents\t%d\n", ss.Documents)
	fmt.Fprintf(w, "segments\t%d\n", ss.Segments)
	ratio := 0.0
	if ss.SnapshotRawBytes > 0 {
		ratio = float64(ss.SnapshotStoredBytes) / float64(ss.SnapshotRawBytes)
	}
	fmt.Fprintf(w, "snapshots\t%d bytes stored, %d raw (%.3f)", ss.SnapshotStoredBytes, ss.SnapshotRawBytes, ratio)
	for _, e := range ss.SnapshotEncodings {
		fmt.Fprintf(w, "; %s %d files %d bytes", e.Name, e.Files, e.Bytes)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "fsyncs\t%d (mean batch %.2f, max %d)\n", ss.FsyncTotal, ss.MeanBatch(), ss.MaxBatch)
	fmt.Fprintf(w, "cache\t%d/%d resident, hit ratio %.3f\n", ss.CacheLen, ss.CacheCap, ss.CacheHitRatio())
	fmt.Fprintf(w, "compactions\t%d (%.3fs total)\n", ss.Compactions, ss.CompactionSeconds)
	for _, sh := range ss.PerShard {
		fmt.Fprintf(w, "shard %03d\t%d docs\t%d segments\t%d appends\t%d fsyncs\t%d rejected\n",
			sh.Shard, sh.Docs, sh.Segments, sh.Appends, sh.Syncs, sh.Rejected)
	}
	return nil
}

// runScrub verifies every checksum in the warehouse. One pass by
// default with -once, otherwise a pass every -interval until
// interrupted. Damage is quarantined (renamed aside, never deleted);
// -repair additionally rewrites whatever the surviving redundancy
// covers.
func runScrub(dir string, rest []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	once := fs.Bool("once", false, "run exactly one pass and exit")
	repair := fs.Bool("repair", false, "rewrite damage covered by surviving redundancy instead of only quarantining")
	interval := fs.Duration("interval", time.Minute, "pause between passes without -once")
	throttle := fs.Int64("throttle", 0, "read ceiling in bytes per second (0 = default 8MiB/s, negative = unthrottled)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("scrub takes no arguments")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// OpenDegraded: a scrub run must not be refused by the very
	// corruption it exists to handle. Damage found during recovery is
	// quarantined and reported below; live repair from resident chains
	// covers damage that appears while the pass loop runs.
	vs, err := vstore.Open(dir, diff.Options{}, vstore.Config{
		OpenDegraded: true,
		Scrub:        vstore.ScrubConfig{Throttle: *throttle, NoRepair: !*repair},
	})
	if err != nil {
		return err
	}
	defer vs.Close()
	if rec := vs.RecoveryStats(); rec.Quarantined > 0 {
		fmt.Printf("scrub: recovery quarantined %d corrupt files; %d documents serve degraded\n",
			rec.Quarantined, rec.DegradedDocs)
	}
	for {
		rep, err := vs.ScrubPass(ctx)
		printScrubReport(rep)
		if err != nil && !errors.Is(err, context.Canceled) {
			return err
		}
		if *once || ctx.Err() != nil {
			return nil
		}
		pause := time.NewTimer(*interval)
		select {
		case <-ctx.Done():
			pause.Stop()
			return nil
		case <-pause.C:
		}
	}
}

// printScrubReport renders one pass for the terminal.
func printScrubReport(rep scrub.Report) {
	rate := 0.0
	if s := rep.Duration.Seconds(); s > 0 {
		rate = float64(rep.BytesScanned) / s / (1 << 20)
	}
	fmt.Printf("scrub: %d segments + %d snapshots, %d records, %d bytes in %s (%.1f MB/s)\n",
		rep.SegmentsScanned, rep.SnapshotsScanned, rep.RecordsVerified,
		rep.BytesScanned, rep.Duration.Round(time.Millisecond), rate)
	fmt.Printf("scrub: %d found, %d repaired, %d quarantined, %d documents degraded\n",
		rep.Found, rep.Repaired, rep.Quarantined, rep.Degraded)
	for _, f := range rep.Findings {
		at := ""
		if f.Offset >= 0 {
			at = fmt.Sprintf(" at %d", f.Offset)
		}
		fmt.Printf("scrub: %s %s%s: %s\n", f.Action, f.Path, at, f.Reason)
	}
}

// runMigrate converts an old per-document directory to the sharded
// layout in place, keeping the original as DIR.pre-migrate.
func runMigrate(dir string, rest []string) error {
	cfg := vstore.Config{}
	switch len(rest) {
	case 0:
	case 1:
		n, err := strconv.Atoi(rest[0])
		if err != nil || n <= 0 {
			return fmt.Errorf("bad shard count %q", rest[0])
		}
		cfg.Shards = n
	default:
		return fmt.Errorf("migrate takes at most one argument (SHARDS)")
	}
	count, err := vstore.Migrate(dir, diff.Options{}, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("migrated %d documents to the sharded layout (backup kept at %s.pre-migrate)\n", count, dir)
	return nil
}

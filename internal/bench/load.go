package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"xydiff/internal/changesim"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/store"
	"xydiff/internal/vstore"
)

// LoadConfig tunes the storage-engine load harness (cmd/xyload and the
// bench6 experiment). The zero value — resolved by withDefaults — is
// the check.sh smoke shape: enough concurrent writers to exercise
// group commit, small enough to finish in seconds.
type LoadConfig struct {
	// Dir is the data directory; empty means a temporary directory that
	// is removed afterwards.
	Dir string
	// Docs is how many documents (synthetic sources) are registered.
	Docs int
	// Writers is the number of concurrent writer goroutines.
	Writers int
	// PutsPerWriter is how many churn Puts each writer performs after
	// registration.
	PutsPerWriter int
	// ReadEvery makes every Nth churn op also reconstruct a random past
	// version (0 disables reads).
	ReadEvery int
	// Shards, MaxBatch, MaxDelay, CacheSize and SegmentBytes pass
	// through to vstore.Config (zero = that engine's default), except
	// Shards, which defaults to 2 here so the smoke concentrates many
	// writers on few group-commit queues.
	Shards       int
	MaxBatch     int
	MaxDelay     time.Duration
	CacheSize    int
	SegmentBytes int64
	// Sync is the fsync policy name ("always", "interval", "off");
	// default "always" — the whole point is counting fsyncs.
	Sync string
	// Seed drives the synthetic corpus and churn.
	Seed int64
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Docs <= 0 {
		c.Docs = 128
	}
	if c.Writers <= 0 {
		c.Writers = 64
	}
	if c.PutsPerWriter <= 0 {
		c.PutsPerWriter = 6
	}
	if c.ReadEvery == 0 {
		c.ReadEvery = 4
	}
	if c.Shards <= 0 {
		c.Shards = 2
	}
	if c.Sync == "" {
		c.Sync = "always"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Bench6Report is the machine-readable record behind BENCH_6.json: the
// sharded engine's behaviour under concurrent load — group-commit
// batching (the fsyncs-per-acked-Put headline), Put and reconstruct
// latency percentiles, cache effectiveness, and cold-start recovery
// time. scripts/benchdiff.sh gates a fresh report against the
// committed one with coarse tolerances.
type Bench6Report struct {
	Schema     int    `json:"schema"`
	Mode       string `json:"mode"` // "quick" or "full"
	GoVersion  string `json:"goVersion"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"numCPU"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	Docs          int    `json:"docs"`
	Writers       int    `json:"writers"`
	PutsPerWriter int    `json:"putsPerWriter"`
	Shards        int    `json:"shards"`
	Sync          string `json:"sync"`

	AckedPuts    int64   `json:"ackedPuts"`
	Rejected     int64   `json:"rejected"`
	FsyncTotal   int64   `json:"fsyncTotal"`
	FsyncsPerPut float64 `json:"fsyncsPerPut"`
	MeanBatch    float64 `json:"meanFsyncBatch"`
	MaxBatch     int64   `json:"maxFsyncBatch"`

	PutP50Micros  int64 `json:"putP50Micros"`
	PutP99Micros  int64 `json:"putP99Micros"`
	Reads         int64 `json:"reads"`
	ReadP50Micros int64 `json:"readP50Micros"`
	ReadP99Micros int64 `json:"readP99Micros"`

	CacheHitRatio float64 `json:"cacheHitRatio"`
	Notifications int64   `json:"observerNotifications"`

	RecoverySeconds   float64 `json:"recoverySeconds"`
	RecoveredDocs     int     `json:"recoveredDocs"`
	RecoveredVersions int     `json:"recoveredVersions"`
}

// RunLoad drives the sharded engine with cfg's concurrent workload and
// measures the report: register Docs documents, churn them with
// group-committed Puts mixed with version reconstructions and observer
// (subscription) traffic, then close and reopen to time recovery.
func RunLoad(cfg LoadConfig) (*Bench6Report, error) {
	cfg = cfg.withDefaults()
	dir := cfg.Dir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "xyload-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	policy, err := store.ParseSyncPolicy(cfg.Sync)
	if err != nil {
		return nil, err
	}
	vcfg := vstore.Config{
		Shards:       cfg.Shards,
		Sync:         policy,
		MaxBatch:     cfg.MaxBatch,
		MaxDelay:     cfg.MaxDelay,
		CacheSize:    cfg.CacheSize,
		SegmentBytes: cfg.SegmentBytes,
	}
	st, err := vstore.Open(dir, diff.Options{}, vcfg)
	if err != nil {
		return nil, err
	}

	r := &Bench6Report{
		Schema:     1,
		Mode:       "full",
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       cfg.Seed,

		Docs:          cfg.Docs,
		Writers:       cfg.Writers,
		PutsPerWriter: cfg.PutsPerWriter,
		Shards:        cfg.Shards,
		Sync:          cfg.Sync,
	}

	// The observer stands in for the subscription path: every versioning
	// diff notifies it, like the daemon's alerter.
	var notifications atomic.Int64
	st.SetObserver(func(store.Observation) {
		notifications.Add(1)
	})

	var (
		acked  atomic.Int64
		wg     sync.WaitGroup
		errMu  sync.Mutex
		runErr error
	)
	putLat := make([][]time.Duration, cfg.Writers)
	readLat := make([][]time.Duration, cfg.Writers)
	fail := func(err error) {
		errMu.Lock()
		if runErr == nil {
			runErr = err
		}
		errMu.Unlock()
	}

	for w := 0; w < cfg.Writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(w)*7919))
			put := func(id string, doc *dom.Node) bool {
				for {
					start := time.Now()
					_, _, err := st.Put(id, doc)
					if err == nil {
						putLat[w] = append(putLat[w], time.Since(start))
						acked.Add(1)
						return true
					}
					if isBusy(err) {
						time.Sleep(time.Duration(200+rng.Intn(800)) * time.Microsecond)
						continue
					}
					fail(fmt.Errorf("writer %d: put %s: %w", w, id, err))
					return false
				}
			}
			// Registration: this writer's slice of the corpus. Churn stays
			// on the same slice — another writer's documents may not be
			// registered yet.
			var own []string
			for d := w; d < cfg.Docs; d += cfg.Writers {
				id := fmt.Sprintf("src-%06d", d)
				if !put(id, changesim.Catalog(rng, 1, 2)) {
					return
				}
				own = append(own, id)
			}
			if len(own) == 0 {
				return // more writers than documents: nothing to churn
			}
			// Churn: mutate own documents round-robin, mixing in version
			// reconstructions.
			for p := 0; p < cfg.PutsPerWriter; p++ {
				id := own[p%len(own)]
				latest, versions, err := st.Latest(id)
				if err != nil {
					fail(fmt.Errorf("writer %d: latest %s: %w", w, id, err))
					return
				}
				sim, err := changesim.Simulate(latest, changesim.Uniform(0.25, cfg.Seed+int64(w*1000+p)))
				if err != nil {
					fail(fmt.Errorf("writer %d: simulate %s: %w", w, id, err))
					return
				}
				if !put(id, sim.New) {
					return
				}
				if cfg.ReadEvery > 0 && p%cfg.ReadEvery == 0 {
					v := 1 + rng.Intn(versions+1)
					start := time.Now()
					if _, err := st.Version(id, v); err != nil {
						fail(fmt.Errorf("writer %d: reconstruct %s v%d: %w", w, id, v, err))
						return
					}
					readLat[w] = append(readLat[w], time.Since(start))
				}
			}
		}(w)
	}
	wg.Wait()
	if runErr != nil {
		_ = st.Close()
		return nil, runErr
	}

	ss := st.StorageStats()
	r.AckedPuts = acked.Load()
	r.Rejected = ss.Rejected
	r.FsyncTotal = ss.FsyncTotal
	if r.AckedPuts > 0 {
		r.FsyncsPerPut = float64(ss.FsyncTotal) / float64(r.AckedPuts)
	}
	r.MeanBatch = ss.MeanBatch()
	r.MaxBatch = ss.MaxBatch
	r.CacheHitRatio = ss.CacheHitRatio()
	r.Notifications = notifications.Load()

	allPut := flatten(putLat)
	allRead := flatten(readLat)
	r.PutP50Micros = percentileMicros(allPut, 0.50)
	r.PutP99Micros = percentileMicros(allPut, 0.99)
	r.Reads = int64(len(allRead))
	r.ReadP50Micros = percentileMicros(allRead, 0.50)
	r.ReadP99Micros = percentileMicros(allRead, 0.99)

	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("closing loaded store: %w", err)
	}

	// Cold start: reopen the directory and time the full recovery.
	start := time.Now()
	st2, err := vstore.Open(dir, diff.Options{}, vcfg)
	if err != nil {
		return nil, fmt.Errorf("recovery reopen: %w", err)
	}
	r.RecoverySeconds = time.Since(start).Seconds()
	rec := st2.RecoveryStats()
	r.RecoveredDocs = len(st2.IDs())
	r.RecoveredVersions = rec.SnapshotVersions + rec.JournalRecords
	if err := st2.Close(); err != nil {
		return nil, err
	}
	if r.RecoveredDocs != cfg.Docs {
		return nil, fmt.Errorf("recovery found %d documents, want %d", r.RecoveredDocs, cfg.Docs)
	}
	return r, nil
}

// Bench6 measures the report at the canned sizes: quick mode is the
// check.sh smoke, full mode is the committed-baseline shape.
func Bench6(quick bool, seed int64) (*Bench6Report, error) {
	cfg := LoadConfig{Seed: seed}
	if quick {
		cfg.Docs, cfg.Writers, cfg.PutsPerWriter = 96, 64, 4
	} else {
		cfg.Docs, cfg.Writers, cfg.PutsPerWriter = 512, 96, 12
	}
	r, err := RunLoad(cfg)
	if err != nil {
		return nil, err
	}
	if quick {
		r.Mode = "quick"
	}
	return r, nil
}

func flatten(per [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, s := range per {
		all = append(all, s...)
	}
	return all
}

// percentileMicros returns the q-quantile of ds in microseconds (0 for
// an empty sample).
func percentileMicros(ds []time.Duration, q float64) int64 {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(q * float64(len(sorted)-1)))
	return sorted[idx].Microseconds()
}

func isBusy(err error) bool { return errors.Is(err, vstore.ErrBusy) }

// WriteJSON serializes the report.
func (r *Bench6Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// ReadBench6 parses a report written by WriteJSON.
func ReadBench6(r io.Reader) (*Bench6Report, error) {
	var out Bench6Report
	if err := json.NewDecoder(r).Decode(&out); err != nil {
		return nil, fmt.Errorf("bench: parsing bench6 report: %w", err)
	}
	return &out, nil
}

// Compare checks a fresh report against a committed baseline and
// returns one message per violated gate. Tolerances are coarse, like
// Bench5's: the gate catches a broken group commit (fsyncs-per-Put
// ballooning, batches collapsing) or a gross latency/recovery
// regression on arbitrary hardware, not small drifts.
func (r *Bench6Report) Compare(baseline *Bench6Report) []string {
	var bad []string
	if baseline.FsyncsPerPut > 0 && r.FsyncsPerPut > 3*baseline.FsyncsPerPut {
		bad = append(bad, fmt.Sprintf("fsyncs per acked Put %.3f > 3x baseline %.3f (group commit regressed)",
			r.FsyncsPerPut, baseline.FsyncsPerPut))
	}
	if r.FsyncsPerPut >= 1.0 {
		bad = append(bad, fmt.Sprintf("fsyncs per acked Put %.3f >= 1.0: group commit is not batching at all", r.FsyncsPerPut))
	}
	if baseline.MeanBatch > 0 && r.MeanBatch < baseline.MeanBatch/3 {
		bad = append(bad, fmt.Sprintf("mean fsync batch %.2f < baseline %.2f / 3", r.MeanBatch, baseline.MeanBatch))
	}
	if baseline.PutP50Micros > 0 && r.PutP50Micros > 3*baseline.PutP50Micros {
		bad = append(bad, fmt.Sprintf("put p50 %dµs > 3x baseline %dµs", r.PutP50Micros, baseline.PutP50Micros))
	}
	if baseline.CacheHitRatio > 0 && r.CacheHitRatio < baseline.CacheHitRatio-0.25 {
		bad = append(bad, fmt.Sprintf("cache hit ratio %.3f below baseline %.3f by more than 0.25",
			r.CacheHitRatio, baseline.CacheHitRatio))
	}
	return bad
}

// PrintBench6 renders the report for humans (the JSON goes to -json).
func PrintBench6(w io.Writer, r *Bench6Report) {
	fmt.Fprintf(w, "# BENCH_6 (%s mode, %s %s/%s, %d CPU)\n", r.Mode, r.GoVersion, r.GOOS, r.GOARCH, r.NumCPU)
	fmt.Fprintf(w, "workload: %d docs, %d writers x %d churn puts, %d shards, sync=%s\n",
		r.Docs, r.Writers, r.PutsPerWriter, r.Shards, r.Sync)
	fmt.Fprintf(w, "acked puts        %d (%d shed with busy)\n", r.AckedPuts, r.Rejected)
	fmt.Fprintf(w, "fsyncs            %d total, %.3f per acked put (mean batch %.2f, max %d)\n",
		r.FsyncTotal, r.FsyncsPerPut, r.MeanBatch, r.MaxBatch)
	fmt.Fprintf(w, "put latency       p50 %dµs, p99 %dµs\n", r.PutP50Micros, r.PutP99Micros)
	fmt.Fprintf(w, "reconstruct       %d reads, p50 %dµs, p99 %dµs\n", r.Reads, r.ReadP50Micros, r.ReadP99Micros)
	fmt.Fprintf(w, "version cache     hit ratio %.3f\n", r.CacheHitRatio)
	fmt.Fprintf(w, "observer          %d notifications\n", r.Notifications)
	fmt.Fprintf(w, "recovery          %.3fs for %d docs / %d versions\n",
		r.RecoverySeconds, r.RecoveredDocs, r.RecoveredVersions)
}

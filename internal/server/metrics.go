package server

import (
	"bufio"
	"fmt"
	"io"
	"maps"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"xydiff/internal/diff"
)

// metrics is xydiffd's own registry: HTTP request counts and latency,
// diff counts and phase timings per matcher, shed requests, and alert
// throughput. Change statistics proper (per-label rates, delta size
// ratios) come from the stats.Collector the server also feeds. /metrics
// renders it, with the store's and the crawler's figures, through
// writeExposition.
type metrics struct {
	mu sync.Mutex
	counters
}

// counters are the values metrics guards; snapshot copies them so the
// exposition is formatted outside the lock.
type counters struct {
	requests      map[reqKey]int64
	latency       histogram
	diffs         map[diff.Matcher]diffSums
	rejected      int64
	alerts        int64
	panics        int64
	streamDropped int64
}

type reqKey struct {
	route  string
	method string
	code   int
}

// diffSums are one matcher's diff count and cumulative phase times.
type diffSums struct {
	n      int64
	phases [5]time.Duration
}

func newMetrics() *metrics {
	return &metrics{counters: counters{
		requests: make(map[reqKey]int64),
		diffs:    make(map[diff.Matcher]diffSums),
	}}
}

// snapshot copies the counters.
func (m *metrics) snapshot() counters {
	m.mu.Lock()
	defer m.mu.Unlock()
	c := m.counters
	c.requests = maps.Clone(m.requests)
	c.diffs = maps.Clone(m.diffs)
	return c
}

// observeRequest records one served request.
func (m *metrics) observeRequest(route, method string, code int, dur time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{route, method, code}]++
	m.latency.observe(dur.Seconds())
}

// observeDiff records one completed versioning diff's phase timings
// under the matcher that computed it.
func (m *metrics) observeDiff(matcher diff.Matcher, phases [5]time.Duration) {
	if matcher == "" {
		matcher = diff.MatcherBULD
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.diffs[matcher]
	d.n++
	for i, p := range phases {
		d.phases[i] += p
	}
	m.diffs[matcher] = d
}

func (m *metrics) addRejected() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejected++
}

func (m *metrics) addPanic() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.panics++
}

func (m *metrics) addAlerts(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.alerts += int64(n)
}

func (m *metrics) addStreamDropped(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.streamDropped += int64(n)
}

// latencyBounds are the request-latency buckets' upper bounds in
// seconds: 100µs .. 100s, roughly 3 buckets per decade.
var latencyBounds = [...]float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100,
}

// histogram is the fixed-bucket request-latency histogram (seconds). It
// is a plain value, so a copy is a snapshot; quantiles are left to the
// scraper (Prometheus's histogram_quantile).
type histogram struct {
	counts [len(latencyBounds) + 1]int64 // the last is +Inf
	sum    float64
	total  int64
}

func (h *histogram) observe(v float64) {
	h.counts[sort.SearchFloat64s(latencyBounds[:], v)]++
	h.sum += v
	h.total++
}

// family is one metric family as writeExposition takes it: its samples,
// or for a histogram the histogram they are rendered from.
type family struct {
	name, typ, help string
	keys            []string // label keys, in the order they are written
	samples         []sample
	hist            *histogram
}

// sample is one value of a family: its label values, one per key, and
// the value as text (integers as %d, floats as %g).
type sample struct {
	labels []string
	value  string
}

type number interface{ ~int | ~int64 | ~float64 }

func num[T number](v T) string { return fmt.Sprint(v) }

func counter[T number](name, help string, v T) family {
	return family{name: name, typ: "counter", help: help, samples: []sample{{value: num(v)}}}
}

func gauge[T number](name, help string, v T) family {
	return family{name: name, typ: "gauge", help: help, samples: []sample{{value: num(v)}}}
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

// writeExposition renders fams in the Prometheus text format (version
// 0.0.4). It is the one place /metrics text is written: each family's
// HELP and TYPE lines, then all of its samples, so a family is one
// group by construction.
func writeExposition(w io.Writer, fams []family) error {
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, helpEscaper.Replace(f.help), f.name, f.typ)
		if h := f.hist; h != nil {
			var cum int64
			for i, le := range latencyBounds {
				cum += h.counts[i]
				fmt.Fprintf(bw, "%s_bucket{le=\"%g\"} %d\n", f.name, le, cum)
			}
			fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n", f.name, h.total, f.name, h.sum, f.name, h.total)
			continue
		}
		for _, s := range f.samples {
			set := ""
			if len(f.keys) > 0 {
				pairs := make([]string, len(f.keys))
				for i, k := range f.keys {
					pairs[i] = k + `="` + labelEscaper.Replace(s.labels[i]) + `"`
				}
				set = "{" + strings.Join(pairs, ",") + "}"
			}
			fmt.Fprintf(bw, "%s%s %s\n", f.name, set, s.value)
		}
	}
	return bw.Flush()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// Past the header a write error means the client hung up.
	_ = writeExposition(w, s.metricFamilies())
}

// phaseNames label the diff phases. They are BULD's; SFTM reports its
// whole match pipeline as phase "buld" (see diff.diffSFTM).
var phaseNames = [5]string{"ids", "annotate", "buld", "propagate", "construct"}

// metricFamilies gathers every family /metrics serves, in order: the
// server's own, the store's journal and recovery counters, the change
// statistics, the crawler's when crawling is enabled, and the storage
// engine's, overall and per shard.
func (s *Server) metricFamilies() []family {
	c := s.metrics.snapshot()

	reqs := family{name: "xydiffd_http_requests_total", typ: "counter", help: "Served HTTP requests.", keys: []string{"route", "method", "code"}}
	keys := make([]reqKey, 0, len(c.requests))
	for k := range c.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.route != b.route {
			return a.route < b.route
		}
		if a.method != b.method {
			return a.method < b.method
		}
		return a.code < b.code
	})
	for _, k := range keys {
		reqs.samples = append(reqs.samples, sample{[]string{k.route, k.method, strconv.Itoa(k.code)}, num(c.requests[k])})
	}

	// Both known matchers are always present (zero included), so a
	// dashboard sees the series exist before the first sftm PUT.
	diffs := family{name: "xydiffd_diffs_total", typ: "counter", help: "Versioning diffs computed, by matcher.", keys: []string{"matcher"}}
	phases := family{name: "xydiffd_diff_phase_seconds_total", typ: "counter",
		help: `Cumulative diff phase time, by matcher; SFTM's match pipeline counts as phase "buld".`,
		keys: []string{"matcher", "phase"}}
	for _, matcher := range diff.Matchers() {
		d := c.diffs[matcher]
		diffs.samples = append(diffs.samples, sample{[]string{string(matcher)}, num(d.n)})
		for i, name := range phaseNames {
			phases.samples = append(phases.samples, sample{[]string{string(matcher), name}, num(d.phases[i].Seconds())})
		}
	}

	ds, rec, rep := s.store.DurabilityStats(), s.store.RecoveryStats(), s.pipeline.Stats.Report()
	ops := family{name: "xydiffd_change_ops_total", typ: "counter", help: "Delta operations measured, by kind.", keys: []string{"kind"}}
	for _, kv := range []struct {
		kind string
		n    int
	}{
		{"insert", rep.Ops.Inserts}, {"delete", rep.Ops.Deletes},
		{"update", rep.Ops.Updates}, {"move", rep.Ops.Moves}, {"attr", rep.Ops.AttrOps},
	} {
		ops.samples = append(ops.samples, sample{[]string{kv.kind}, num(kv.n)})
	}

	fams := []family{
		reqs,
		{name: "xydiffd_http_request_seconds", typ: "histogram", help: "HTTP request latency.", hist: &c.latency},
		diffs,
		phases,
		gauge("xydiffd_queue_depth", "Diff jobs waiting in the queue.", s.pool.depth()),
		gauge("xydiffd_queue_capacity", "Diff jobs the queue holds before requests are shed.", cap(s.pool.jobs)),
		gauge("xydiffd_workers", "Diff worker pool size.", s.pool.workers),
		counter("xydiffd_queue_rejected_total", "Requests shed because the queue was full.", c.rejected),
		counter("xydiffd_alerts_total", "Alerts raised by the subscription system.", c.alerts),
		counter("xydiffd_alert_stream_dropped_total", "Alerts lost by slow NDJSON stream consumers.", c.streamDropped),
		counter("xydiffd_panics_total", "Handler panics caught by the recovery middleware.", c.panics),

		// Journal durability counters (all zero for a store without a
		// directory).
		counter("xydiffd_journal_appends_total", "Journal records appended.", ds.Appends),
		counter("xydiffd_journal_appended_bytes_total", "Bytes appended to journals.", ds.AppendedBytes),
		counter("xydiffd_journal_syncs_total", "Journal fsyncs completed.", ds.Syncs),
		counter("xydiffd_journal_checkpoints_total", "Snapshot+compaction cycles completed.", ds.Checkpoints),
		gauge("xydiffd_recovery_journal_records", "Journal records replayed at startup.", rec.JournalRecords),
		gauge("xydiffd_recovery_torn_tails", "Torn journal tails truncated at startup.", rec.TornTails),

		// Change statistics from the stats collector (the paper's
		// measurement program), aggregated over every versioning diff.
		counter("xydiffd_change_versions_observed", "Version transitions measured.", rep.Versions),
		ops,
		gauge("xydiffd_change_delta_doc_ratio", "Delta bytes over document bytes, over every measured version.", rep.DeltaRatio()),
		gauge("xydiffd_store_documents", "Stored documents.", len(s.store.IDs())),
	}

	if s.crawler != nil {
		cs := s.crawler.Metrics().Snapshot()
		fams = append(fams,
			counter("xydiffd_crawl_fetches_total", "Completed fetch cycles (200 or 304).", cs.Fetches),
			counter("xydiffd_crawl_not_modified_total", "Conditional GETs answered 304 (parse/diff skipped).", cs.NotModified),
			counter("xydiffd_crawl_ingests_total", "Fetches that installed a new version.", cs.Ingests),
			counter("xydiffd_crawl_unchanged_total", "200 responses whose content matched the stored version.", cs.Unchanged),
			counter("xydiffd_crawl_retries_total", "In-cycle HTTP re-attempts.", cs.Retries),
			counter("xydiffd_crawl_failures_total", "Fetch cycles that exhausted their attempts.", cs.Failures),
			counter("xydiffd_crawl_circuit_opens_total", "Times a source's circuit opened.", cs.CircuitOpens),
			counter("xydiffd_crawl_fetched_bytes_total", "Body bytes downloaded.", cs.FetchedBytes),
			gauge("xydiffd_crawl_open_circuits", "Sources whose circuit is currently open.", cs.OpenCircuits),
			gauge("xydiffd_crawl_queue_depth", "Sources waiting for their due time.", cs.QueueDepth),
			gauge("xydiffd_crawl_sources", "Registered sources.", cs.Sources),
		)
	}

	// Engine counters: group-commit effectiveness, version cache,
	// compaction and scrubbing.
	ss := s.store.StorageStats()
	fams = append(fams,
		gauge("xydiffd_store_shards", "Hash shards in the storage engine.", ss.Shards),
		counter("xydiffd_store_fsync_total", "Segment fsyncs performed by group commit.", ss.FsyncTotal),
		gauge("xydiffd_store_fsync_batch_size", "Mean records acknowledged per group-commit fsync.", ss.MeanBatch()),
		gauge("xydiffd_store_fsync_batch_max", "Largest group-commit batch so far.", ss.MaxBatch),
		counter("xydiffd_store_busy_rejected_total", "Puts shed because a shard's group-commit queue was saturated.", ss.Rejected),
		counter("xydiffd_store_compaction_seconds", "Cumulative time spent compacting segments into snapshots.", ss.CompactionSeconds),
		counter("xydiffd_store_compactions_total", "Compaction passes completed.", ss.Compactions),
		gauge("xydiffd_store_cache_hit_ratio", "Version-cache hit ratio since start.", ss.CacheHitRatio()),
		counter("xydiffd_store_cache_hits_total", "Reads that found the latest version's tree in the version cache.", ss.CacheHits),
		counter("xydiffd_store_cache_misses_total", "Reads that did not find the latest version's tree in the version cache.", ss.CacheMisses),
		gauge("xydiffd_store_cache_resident", "Materialized document trees resident in the version cache.", ss.CacheLen),
		counter("xydiffd_store_keyframe_restores_total", "Cache misses served by restoring the latest version from its in-memory keyframe.", ss.KeyframeRestores),
		counter("xydiffd_store_keyframe_fallbacks_total", "Keyframes that did not restore, so the miss replayed the delta chain.", ss.KeyframeFallbacks),
		gauge("xydiffd_store_keyframe_bytes", "Bytes held by resident keyframes: tree shape, names and values.", ss.KeyframeBytes),
		counter("xydiffd_store_deltas_decoded_total", "Stored deltas decoded by reads and by Puts: each one a read walk stepped through, or a read returned.", ss.DeltasDecoded),
		gauge("xydiffd_store_degraded_docs", "Documents serving degraded (part of their history quarantined).", ss.DegradedDocs),
		family{name: "xydiffd_store_history_bytes", typ: "gauge",
			help: "Resident history (each document's version 1 and stored deltas): bytes held as XML, not yet decoded since the store opened, and as frames.",
			keys: []string{"form"}, samples: []sample{{[]string{"xml"}, num(ss.HistoryXMLBytes)}, {[]string{"frame"}, num(ss.HistoryFrameBytes)}}},
		family{name: "xydiffd_store_snapshot_bytes", typ: "gauge",
			help: "Snapshot content files: bytes stored on disk, and the raw bytes they decode to.",
			keys: []string{"form"}, samples: []sample{{[]string{"stored"}, num(ss.SnapshotStoredBytes)}, {[]string{"raw"}, num(ss.SnapshotRawBytes)}}},
		counter("xydiffd_scrub_cycles_total", "Integrity scrub passes completed.", ss.Scrub.Cycles),
		counter("xydiffd_scrub_scanned_bytes_total", "Bytes read and CRC-verified by the scrubber.", ss.Scrub.BytesScanned),
		counter("xydiffd_scrub_records_verified_total", "Segment records whose checksum and decoding the scrubber verified.", ss.Scrub.RecordsVerified),
		counter("xydiffd_scrub_corruptions_found_total", "Corruptions the scrubber detected.", ss.Scrub.Found),
		counter("xydiffd_scrub_repaired_total", "Corruptions repaired by rewriting from resident data.", ss.Scrub.Repaired),
		counter("xydiffd_scrub_quarantined_total", "Corrupt files renamed aside (never deleted).", ss.Scrub.Quarantined),
		gauge("xydiffd_scrub_last_cycle_seconds", "Duration of the most recent scrub pass.", ss.Scrub.LastSeconds),
		gauge("xydiffd_scrub_last_cycle_unixtime", "When the most recent scrub pass finished (0 = none yet).", ss.Scrub.LastUnix),
	)

	shard := []string{"shard"}
	perShard := []family{
		{name: "xydiffd_store_segments", typ: "gauge", help: "Segment files on disk.", keys: shard},
		{name: "xydiffd_store_shard_fsync_total", typ: "counter", help: "Segment fsyncs per shard.", keys: shard},
		{name: "xydiffd_store_shard_docs", typ: "gauge", help: "Documents per shard.", keys: shard},
		{name: "xydiffd_store_shard_batch_records_total", typ: "counter", help: "Records acknowledged by group-commit fsyncs, per shard.", keys: shard},
		{name: "xydiffd_store_shard_rejected_total", typ: "counter", help: "Puts shed because the shard's group-commit queue was saturated.", keys: shard},
		{name: "xydiffd_store_shard_sealed_segments", typ: "gauge", help: "Sealed segments awaiting compaction, per shard.", keys: shard},
		{name: "xydiffd_store_shard_last_compact_unixtime", typ: "gauge", help: "When the shard last finished a compaction pass (0 = none this run).", keys: shard},
		{name: "xydiffd_store_shard_quarantined_total", typ: "counter", help: "Corrupt files the scrubber set aside, per shard.", keys: shard},
		{name: "xydiffd_store_shard_degraded_docs", typ: "gauge", help: "Documents serving degraded, per shard.", keys: shard},
	}
	for _, sh := range ss.PerShard {
		id := []string{strconv.Itoa(sh.Shard)}
		for i, v := range []int64{
			int64(sh.Segments), sh.Syncs, int64(sh.Docs), sh.BatchRecords, sh.Rejected,
			int64(sh.SealedSegments), sh.LastCompactUnix, sh.Quarantined, sh.DegradedDocs,
		} {
			perShard[i].samples = append(perShard[i].samples, sample{id, num(v)})
		}
	}
	return append(fams, perShard...)
}

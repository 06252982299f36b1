package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// passes is K: how often the timed script is replayed. For op i the
// run keeps the fastest of its K latencies; the host's noise is
// positive and comes in episodes, the program's cost for a given op is
// the same in every pass.
const passes = 3

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metric lists of BENCHMARK.json, in its
// order; benchmark_test.go keeps the two in step.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"put_mean_ms", "ms"},
	{"get_version_mean_ms", "ms"},
	{"get_range_mean_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"heap_live_mb", "MiB"},
	{"delta_ratio", "ratio"},
	{"stored_bytes_per_input_byte", "ratio"},
}

var perLayer = []metricDef{
	{"server.put_overhead_ms", "ms"},
	{"server.get_overhead_ms", "ms"},
	{"server.put_p50_ms", "ms"},
	{"server.put_p90_ms", "ms"},
	{"server.put_p99_ms", "ms"},
	{"server.get_version_p90_ms", "ms"},
	{"server.rejected_503", "count"},
	{"server.resp_kb_per_get", "KiB"},
	{"dom.parse_ms", "ms"},
	{"dom.parse_mb_per_s", "MB/s"},
	{"dom.parse_alloc_kb", "KiB"},
	{"dom.clone_ms", "ms"},
	{"dom.serialize_ms", "ms"},
	{"dom.nodes_per_doc", "count"},
	{"xid.assign_ms", "ms"},
	{"diff.total_ms", "ms"},
	{"diff.phase1_ms", "ms"},
	{"diff.phase2_ms", "ms"},
	{"diff.phase3_ms", "ms"},
	{"diff.phase4_ms", "ms"},
	{"diff.phase5_ms", "ms"},
	{"diff.ns_per_node", "ns"},
	{"diff.alloc_kb", "KiB"},
	{"diff.matched_share", "ratio"},
	{"diff.compose_ms", "ms"},
	{"sftm.match_ms", "ms"},
	{"sftm.from_matching_ms", "ms"},
	{"delta.marshal_ms", "ms"},
	{"delta.parse_ms", "ms"},
	{"delta.invert_ms", "ms"},
	{"delta.apply_ms", "ms"},
	{"delta.bytes_per_put", "B"},
	{"delta.ops_per_put", "count"},
	{"vstore.put_ms", "ms"},
	{"vstore.commit_ms", "ms"},
	{"vstore.version_ms", "ms"},
	{"vstore.latest_ms", "ms"},
	{"vstore.aggregate_ms", "ms"},
	{"vstore.cache_hit_ratio", "ratio"},
	{"vstore.fsyncs_per_put", "ratio"},
	{"vstore.appended_bytes_per_input_byte", "ratio"},
	{"vstore.segments", "count"},
	{"vstore.compactions", "count"},
	{"vstore.reopen_ms", "ms"},
	{"vstore.recovered_versions", "count"},
	{"alert.notify_ms", "ms"},
	{"alert.alerts_per_put", "count"},
	{"alert.subscriptions", "count"},
	{"stats.observe_ms", "ms"},
	{"runtime.gc_cycles_per_kop", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"trace.put_coverage", "ratio"},
	{"trace.get_coverage", "ratio"},
	{"trace.request_overhead", "ratio"},
	{"harness.host_factor", "ratio"},
	{"harness.corpus_gen_s", "s"},
	{"harness.pass_spread", "ratio"},
	{"harness.noisy_ops_share", "ratio"},
	{"harness.ops_skipped", "count"},
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

func mean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(len(xs), 1))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// over collects f(pass) over the passes.
func over(rs []*passResult, f func(*passResult) float64) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = f(r)
	}
	return out
}

// best keeps for each scripted op the fastest latency any pass saw, by
// op kind, in milliseconds at reference speed. Ops no pass reached (or
// that failed in every pass) are skipped and counted.
func best(script []op, rs []*passResult) (byKind [numKinds][]float64, skipped int) {
	for i, o := range script {
		lo := math.Inf(1)
		for _, r := range rs {
			if l := r.lat[i]; l > 0 {
				lo = min(lo, ms(l)/r.factor)
			}
		}
		if math.IsInf(lo, 1) {
			skipped++
			continue
		}
		byKind[o.kind] = append(byKind[o.kind], lo)
	}
	return byKind, skipped
}

type values map[string]float64

// runEndToEnd replays the script in K timed passes and reports the
// end-to-end metrics. samples is the smallest sample count of any op
// kind.
func (h *harness) runEndToEnd(ctx context.Context, seconds float64) (v values, samples int, err error) {
	box := time.Duration(seconds / passes * float64(time.Second))
	var rs []*passResult
	for n := 1; n <= passes && ctx.Err() == nil; n++ {
		var first *passResult
		if n > 1 {
			first = rs[0]
		}
		opens := 0
		if n == passes {
			opens = 1
		}
		r, err := h.pass(ctx, n, box, first, opens)
		if err != nil {
			return nil, 0, fmt.Errorf("pass %d: %w", n, err)
		}
		rs = append(rs, r)
		h.notes = append(h.notes, fmt.Sprintf("pass %d: %d ops in %.2fs, host factor %.3f", n, r.done, r.wall.Seconds(), r.factor))
	}
	if len(rs) == 0 {
		return nil, 0, ctx.Err()
	}
	setups, err := h.moreSetUps(ctx, rs)
	if err != nil {
		return nil, 0, err
	}
	byKind, _ := best(h.c.script, rs)
	samples = math.MaxInt
	var busy float64
	var ops int
	for _, lat := range byKind {
		samples = min(samples, len(lat))
		ops += len(lat)
		for _, l := range lat {
			busy += l
		}
	}
	setupBytes := h.setupBytes()
	perOp := func(f func(*passResult) float64) func(*passResult) float64 {
		return func(r *passResult) float64 { return f(r) / float64(max(r.done, 1)) }
	}
	v = values{
		"setup_s":             median(setups),
		"ops_per_s":           float64(ops) / (busy / 1000),
		"put_mean_ms":         mean(byKind[opPut]),
		"get_version_mean_ms": mean(byKind[opGetVersion]),
		"get_range_mean_ms":   mean(byKind[opGetRange]),
		"cpu_ms_per_op":       slices.Min(over(rs, perOp(func(r *passResult) float64 { return ms(r.cpu) / r.factor }))),
		"alloc_kb_per_op":     median(over(rs, perOp(func(r *passResult) float64 { return float64(r.alloc) / 1024 }))),
		"heap_live_mb":        median(over(rs, func(r *passResult) float64 { return r.heapLive / (1 << 20) })),
		"delta_ratio": median(over(rs, func(r *passResult) float64 {
			return float64(r.deltaBytes) / float64(max(r.perfectBytes, 1))
		})),
		"stored_bytes_per_input_byte": median(over(rs, func(r *passResult) float64 {
			return float64(r.stored) / float64(max(setupBytes+r.putBytes, 1))
		})),
	}
	return v, samples, nil
}

// moreSetUps returns the set-up times of the passes at reference speed
// and, where a set-up is short (tenths of a second on two workloads, so
// three of them make a jumpy median), those of up to six more set-ups
// for as long as the next one still fits into a second and a half.
func (h *harness) moreSetUps(ctx context.Context, rs []*passResult) ([]float64, error) {
	setups := over(rs, func(r *passResult) float64 { return r.setup.Seconds() / r.factor })
	factor := mean(over(rs, func(r *passResult) float64 { return r.factor }))
	dir := filepath.Join(h.dir, "set-up")
	next := time.Duration(median(setups) * factor * float64(time.Second))
	for start := time.Now(); len(setups) < 9 && time.Since(start)+next < 1500*time.Millisecond && ctx.Err() == nil; {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		cl := newClient()
		d, took, err := h.setUp(ctx, dir, cl)
		if d != nil {
			err = errors.Join(err, d.stop(ctx))
		}
		cl.close()
		if err != nil {
			return nil, fmt.Errorf("extra set-up: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds()/factor)
	}
	return setups, nil
}

// setupBytes is the size of the bodies PUT during set-up.
func (h *harness) setupBytes() int64 {
	var n int64
	for _, versions := range h.c.bodies {
		for _, b := range versions[:1+h.c.w.preload] {
			n += int64(len(b))
		}
	}
	return n
}

// runTraced replays the script once plainly, for the counts and the
// tails that best-of-K hides, and the first quarter of its rounds in
// two traced passes, for the layer table. It writes the spans to
// out/trace-<workload>.jsonl.
func (h *harness) runTraced(ctx context.Context, seconds float64, out string) (values, error) {
	box := time.Duration(seconds / passes * float64(time.Second))
	plain, err := h.pass(ctx, 1, box, nil, 3)
	if err != nil {
		return nil, fmt.Errorf("plain pass: %w", err)
	}
	w := h.c.w
	limit := 0
	for rounds, puts := max(w.rounds/4, 1), 0; limit < len(h.c.script); limit++ {
		if h.c.script[limit].kind == opPut {
			if puts++; puts > rounds*w.docs {
				break
			}
		}
	}
	var traced []*tracer
	var walls []float64
	for n := 1; n <= 2; n++ {
		t, wall, err := h.tracedPass(ctx, n, box, limit)
		if err != nil {
			return nil, fmt.Errorf("traced pass %d: %w", n, err)
		}
		traced = append(traced, t)
		walls = append(walls, wall.Seconds())
	}
	if err := writeTrace(filepath.Join(out, "trace-"+w.name+".jsonl"), traced); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}

	byKind, skipped := best(h.c.script, []*passResult{plain})
	setupPuts := float64(w.docs * (1 + w.preload))
	timedPuts := float64(len(byKind[opPut]))
	gets := float64(len(byKind[opGetVersion]) + len(byKind[opGetRange]))
	v := layerTable(h.c, traced)
	add := values{
		"server.put_p50_ms":         percentile(byKind[opPut], 0.50),
		"server.put_p90_ms":         percentile(byKind[opPut], 0.90),
		"server.put_p99_ms":         percentile(byKind[opPut], 0.99),
		"server.get_version_p90_ms": percentile(byKind[opGetVersion], 0.90),
		"server.rejected_503":       float64(plain.rejected),
		"server.resp_kb_per_get":    float64(plain.getBytes) / 1024 / max(gets, 1),
		"dom.nodes_per_doc":         h.c.nodes,
		"delta.bytes_per_put":       float64(plain.deltaBytes) / max(timedPuts, 1),
		"delta.ops_per_put":         float64(plain.deltaOps) / max(timedPuts, 1),

		"vstore.cache_hit_ratio":               plain.stats.CacheHitRatio(),
		"vstore.fsyncs_per_put":                float64(plain.stats.FsyncTotal) / (setupPuts + timedPuts),
		"vstore.appended_bytes_per_input_byte": float64(plain.appended) / float64(max(plain.putBytes, 1)),
		"vstore.segments":                      float64(plain.stats.Segments),
		"vstore.compactions":                   float64(plain.stats.Compactions),
		"vstore.reopen_ms":                     ms(plain.reopen),
		"vstore.recovered_versions":            float64(plain.recovered),

		// Every PUT past a document's first version is diffed and shown
		// to the alerter.
		"alert.alerts_per_put": float64(plain.alerts) / (setupPuts - float64(w.docs) + timedPuts),
		"alert.subscriptions":  float64(len(w.subs)),

		"runtime.gc_cycles_per_kop": float64(plain.gcCycles) / float64(max(plain.done, 1)) * 1000,
		"runtime.gc_pause_ms_total": ms(plain.gcPause),

		"harness.host_factor":  plain.factor,
		"harness.corpus_gen_s": h.c.genTime.Seconds(),
		"harness.pass_spread":  max(walls[0], walls[1]) / min(walls[0], walls[1]),
		"harness.ops_skipped":  float64(skipped + limit - tracedScripted(traced)),
	}
	// Tracing overhead: the same ops' request spans against their plain
	// latencies.
	var ratio []float64
	i := 0
	for _, o := range traced[0].ops {
		if o.kind == "setup_put" {
			continue
		}
		if req := o.byName(false)["request"]; plain.lat[i] > 0 && req > 0 {
			ratio = append(ratio, req/ms(plain.lat[i]))
		}
		i++
	}
	add["trace.request_overhead"] = median(ratio)
	for k, x := range add {
		v[k] = x
	}
	return v, nil
}

// tracedScripted is how many scripted ops both traced passes reached.
func tracedScripted(traced []*tracer) int {
	n := math.MaxInt
	for _, t := range traced {
		scripted := 0
		for _, o := range t.ops {
			if o.kind != "setup_put" {
				scripted++
			}
		}
		n = min(n, scripted)
	}
	return n
}

// layerTable turns the spans of the two traced passes into the layer
// metrics: per op and span name the smaller of the two passes' values,
// then the median over the ops of the kind the metric is about.
func layerTable(c *corpus, traced []*tracer) values {
	n := min(len(traced[0].ops), len(traced[1].ops))
	type opView struct {
		*opTrace
		self, dur map[string]float64
	}
	ops := make([]opView, n)
	noisy := 0
	for i := range ops {
		a, b := traced[0].ops[i], traced[1].ops[i]
		o := opView{opTrace: a, self: a.byName(true), dur: a.byName(false)}
		bs, bd := b.byName(true), b.byName(false)
		if ra, rb := o.dur["request"], bd["request"]; max(ra, rb) >= 2*min(ra, rb) {
			noisy++
		}
		for name, x := range bs {
			o.self[name] = min(o.self[name], x)
			o.dur[name] = min(o.dur[name], bd[name])
		}
		o.parseAlloc, o.diffAlloc = min(a.parseAlloc, b.parseAlloc), min(a.diffAlloc, b.diffAlloc)
		ops[i] = o
	}
	// med is the median of f over the ops whose kind is listed and for
	// which f has a value.
	med := func(f func(o opView) (float64, bool), kinds ...string) float64 {
		var xs []float64
		for _, o := range ops {
			for _, k := range kinds {
				if o.kind == k {
					if x, ok := f(o); ok {
						xs = append(xs, x)
					}
				}
			}
		}
		return median(xs)
	}
	self := func(name string) func(opView) (float64, bool) {
		return func(o opView) (float64, bool) { x, ok := o.self[name]; return x, ok }
	}
	dur := func(name string) func(opView) (float64, bool) {
		return func(o opView) (float64, bool) { x, ok := o.dur[name]; return x, ok }
	}
	const put, gv, gr, setup = "put", "get_version", "get_range", "setup_put"
	coverage := func(o opView) (float64, bool) { return o.dur["shadow"] / o.dur["request"], o.dur["request"] > 0 }
	overhead := func(o opView) (float64, bool) { return o.dur["request"] - o.dur["shadow"], true }
	sftm := func(phase string) float64 {
		if c.w.matcher != "sftm" {
			return 0
		}
		return med(dur(phase), put)
	}
	return values{
		"server.put_overhead_ms": med(overhead, put),
		"server.get_overhead_ms": med(overhead, gv, gr),
		"dom.parse_ms":           med(self("dom.parse"), put),
		"dom.parse_mb_per_s": med(func(o opView) (float64, bool) {
			return float64(o.bodyBytes) / 1e6 / (o.self["dom.parse"] / 1000), o.self["dom.parse"] > 0
		}, put),
		"dom.parse_alloc_kb": med(func(o opView) (float64, bool) { return float64(o.parseAlloc) / 1024, true }, put),
		"dom.clone_ms":       med(self("dom.clone"), put),
		"dom.serialize_ms":   med(self("dom.serialize"), gv),
		"xid.assign_ms":      med(self("xid.assign"), setup, put, gv, gr),
		"diff.total_ms":      med(dur("diff"), put),
		"diff.phase1_ms":     med(dur("diff.phase1"), put),
		"diff.phase2_ms":     med(dur("diff.phase2"), put),
		"diff.phase3_ms":     med(dur("diff.phase3"), put),
		"diff.phase4_ms":     med(dur("diff.phase4"), put),
		"diff.phase5_ms":     med(dur("diff.phase5"), put),
		"diff.ns_per_node": med(func(o opView) (float64, bool) {
			return o.dur["diff"] * 1e6 / float64(o.oldNodes), o.oldNodes > 0
		}, put),
		"diff.alloc_kb": med(func(o opView) (float64, bool) { return float64(o.diffAlloc) / 1024, true }, put),
		"diff.matched_share": med(func(o opView) (float64, bool) {
			return float64(o.matched) / float64(o.oldNodes), o.oldNodes > 0
		}, put),
		"diff.compose_ms":       med(self("diff.compose"), gr),
		"sftm.match_ms":         sftm("diff.phase3"),
		"sftm.from_matching_ms": sftm("diff.phase5"),
		"delta.marshal_ms": med(func(o opView) (float64, bool) {
			return o.self["delta.marshal"] + o.self["delta.size"], true
		}, put),
		"delta.parse_ms":  med(self("delta.parse"), gv, gr),
		"delta.invert_ms": med(self("delta.invert"), gv, gr),
		"delta.apply_ms":  med(self("delta.apply"), gv, gr),
		"vstore.put_ms":   med(dur("vstore.put"), put),
		// What the engine adds to the calls it makes into dom, diff and
		// delta: locks, record framing, the commit queue, the cache.
		"vstore.commit_ms": med(func(o opView) (float64, bool) {
			return o.dur["vstore.put"] - o.dur["dom.clone"] - o.dur["diff"] - o.dur["delta.marshal"], true
		}, put),
		"vstore.version_ms": med(dur("vstore.version"), gv),
		"vstore.latest_ms": med(func(o opView) (float64, bool) {
			return o.dur["vstore.version"], o.latest
		}, gv),
		"vstore.aggregate_ms":     med(dur("vstore.aggregate"), gr),
		"alert.notify_ms":         med(self("alert.notify"), put),
		"stats.observe_ms":        med(self("stats.observe"), put),
		"trace.put_coverage":      med(coverage, put),
		"trace.get_coverage":      med(coverage, gv, gr),
		"harness.noisy_ops_share": float64(noisy) / float64(max(n, 1)),
	}
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"xydiff/internal/alert"
	"xydiff/internal/delta"
	"xydiff/internal/diff"
	"xydiff/internal/dom"
	"xydiff/internal/stats"
	"xydiff/internal/xid"
	"xydiff/internal/xpathlite"
)

// The traced passes record spans from the benchmark's side of each
// layer boundary; no program file carries instrumentation. Every op is
// done three ways: (a) over HTTP against a daemon (span "request"),
// (b) by direct call into a second store ("vstore.put",
// "vstore.version", "vstore.aggregate"), and (c) re-assembled from the
// layers' public functions on shadow trees, in the order
// handlePutDoc/putContext/observe and Version/Aggregate run them
// (span "shadow" and its children). The children's self times are the
// layer table; shadow ÷ request is the coverage that says whether the
// re-assembly still describes the program.

// span is one line of trace-<workload>.jsonl.
type span struct {
	Pass   int    `json:"pass"`
	Op     int    `json:"op"`   // id shared by the spans of one op
	Kind   string `json:"kind"` // setup_put, put, get_version, get_range
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // id of the causing span, -1 for none
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// opTrace is everything recorded for one traced op.
type opTrace struct {
	kind  string
	spans []span
	// Counts taken at the same boundaries as the spans.
	bodyBytes, parseAlloc, diffAlloc uint64
	oldNodes, matched                int
	latest                           bool // get_version of the current version
}

type tracer struct {
	pass int
	t0   time.Time
	ops  []*opTrace
	cur  *opTrace
}

func (t *tracer) startOp(kind string) *opTrace {
	t.cur = &opTrace{kind: kind}
	t.ops = append(t.ops, t.cur)
	return t.cur
}

func (t *tracer) begin(name string, parent int) int {
	id := len(t.cur.spans)
	t.cur.spans = append(t.cur.spans, span{
		Pass: t.pass, Op: len(t.ops) - 1, Kind: t.cur.kind,
		ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.t0)),
	})
	return id
}

func (t *tracer) end(id int) { t.cur.spans[id].End = int64(time.Since(t.t0)) }

// lay records child spans of known durations end to end from the
// parent's start: diff reports its phases as durations, not instants.
func (t *tracer) lay(parent int, names []string, durs []time.Duration) {
	at := t.cur.spans[parent].Start
	for i, name := range names {
		id := t.begin(name, parent)
		t.cur.spans[id].Start, t.cur.spans[id].End = at, at+int64(durs[i])
		at += int64(durs[i])
	}
}

// byName sums span durations (self = false) or self times (a span
// minus the part its children cover) per span name, in milliseconds.
func (o *opTrace) byName(self bool) map[string]float64 {
	out := make(map[string]float64, len(o.spans))
	children := make([]int64, len(o.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range o.spans {
		d := s.End - s.Start
		if self {
			d = max(d-children[i], 0)
		}
		out[s.Name] += float64(d) / 1e6
	}
	return out
}

func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// shadow re-runs the program's request path on its own trees.
type shadow struct {
	opts      diff.Options
	alerter   *alert.Alerter
	collector *stats.Collector
	docs      []shadowDoc
}

// shadowDoc mirrors vstore's docState plus the cached latest tree.
type shadowDoc struct {
	latest *dom.Node
	base   []byte
	deltas [][]byte
}

func newShadow(w *workload) (*shadow, error) {
	s := &shadow{
		opts:      diff.Options{Workers: 1, Matcher: w.matcher},
		alerter:   alert.New(),
		collector: stats.NewCollector(),
		docs:      make([]shadowDoc, w.docs),
	}
	for _, sub := range w.subs {
		as := alert.Subscription{ID: sub.ID, Path: sub.Path}
		if sub.Query != "" {
			expr, err := xpathlite.Compile(sub.Query)
			if err != nil {
				return nil, fmt.Errorf("subscription %s: %w", sub.ID, err)
			}
			as.Query = expr
		}
		for _, k := range sub.Kinds {
			for _, kind := range []delta.Kind{delta.KindInsert, delta.KindDelete, delta.KindUpdate, delta.KindMove, delta.KindInsertAttr, delta.KindDeleteAttr, delta.KindUpdateAttr} {
				if kind.String() == k {
					as.Kinds = append(as.Kinds, kind)
				}
			}
		}
		s.alerter.Subscribe(as)
	}
	return s, nil
}

// uploadOptions are server.parseOptions at the server's defaults.
func uploadOptions() dom.ParseOptions {
	opts := dom.DefaultParseOptions()
	opts.Limits.MaxDepth, opts.Limits.MaxTokens = 1000, 1_000_000
	return opts
}

// put mirrors handlePutDoc → putContext → observe for version v.
func (s *shadow) put(ctx context.Context, t *tracer, root int, id string, d, v int, body []byte) error {
	o := t.cur
	sd := &s.docs[d]
	a0 := allocated()
	p := t.begin("dom.parse", root)
	doc, err := dom.ParseWithOptions(bytes.NewReader(body), uploadOptions())
	t.end(p)
	o.bodyBytes, o.parseAlloc = uint64(len(body)), allocated()-a0
	if err != nil {
		return err
	}
	c := t.begin("dom.clone", root)
	next := doc.Clone()
	t.end(c)
	if v == 1 {
		x := t.begin("xid.assign", root)
		xid.Assign(next)
		t.end(x)
		w := t.begin("dom.serialize", root)
		var buf bytes.Buffer
		_, err := next.WriteTo(&buf)
		t.end(w)
		sd.latest, sd.base = next, buf.Bytes()
		return err
	}
	a0 = allocated()
	df := t.begin("diff", root)
	r, err := diff.DiffDetailedContext(ctx, sd.latest, next, s.opts)
	t.end(df)
	o.diffAlloc = allocated() - a0
	if err != nil {
		return err
	}
	tm := r.Timings
	t.lay(df, []string{"diff.phase2", "diff.phase1", "diff.phase3", "diff.phase4", "diff.phase5"},
		[]time.Duration{tm.Phase2, tm.Phase1, tm.Phase3, tm.Phase4, tm.Phase5})
	o.oldNodes, o.matched = r.OldNodes, r.MatchedNodes
	m := t.begin("delta.marshal", root)
	raw, err := r.Delta.MarshalText()
	t.end(m)
	if err != nil {
		return err
	}
	ob := t.begin("stats.observe", root)
	s.collector.Observe(sd.latest, next, r.Delta)
	t.end(ob)
	al := t.begin("alert.notify", root)
	s.alerter.Notify(id, v, sd.latest, next, r.Delta)
	t.end(al)
	// The handler marshals the delta a second time for "deltaBytes".
	sz := t.begin("delta.size", root)
	r.Delta.Size()
	t.end(sz)
	sd.latest, sd.deltas = next, append(sd.deltas, raw)
	return nil
}

// materialize mirrors materializeLocked: the cached tree, or on a
// version-cache miss a replay of base + deltas.
func (s *shadow) materialize(t *tracer, root, d int, miss bool) (*dom.Node, error) {
	sd := &s.docs[d]
	if !miss {
		return sd.latest, nil
	}
	p := t.begin("dom.parse", root)
	doc, err := dom.ParseWithOptions(bytes.NewReader(sd.base), dom.ParseOptions{KeepWhitespace: true, KeepComments: true, KeepProcInsts: true})
	t.end(p)
	if err != nil {
		return nil, err
	}
	x := t.begin("xid.assign", root)
	xid.Assign(doc)
	t.end(x)
	for _, raw := range sd.deltas {
		dl, err := s.parseDelta(t, root, raw)
		if err != nil {
			return nil, err
		}
		a := t.begin("delta.apply", root)
		err = delta.Apply(doc, dl)
		t.end(a)
		if err != nil {
			return nil, err
		}
	}
	sd.latest = doc
	return doc, nil
}

func (s *shadow) parseDelta(t *tracer, root int, raw []byte) (*delta.Delta, error) {
	p := t.begin("delta.parse", root)
	dl, err := delta.Parse(bytes.NewReader(raw))
	t.end(p)
	return dl, err
}

func (s *shadow) invert(t *tracer, root int, dl *delta.Delta) (*delta.Delta, error) {
	i := t.begin("delta.invert", root)
	inv, err := dl.Invert()
	t.end(i)
	return inv, err
}

// version mirrors Store.Version: clone the latest, walk inverted
// deltas back to n.
func (s *shadow) version(t *tracer, root, d, n int, miss bool) (*dom.Node, error) {
	latest, err := s.materialize(t, root, d, miss)
	if err != nil {
		return nil, err
	}
	c := t.begin("dom.clone", root)
	doc := latest.Clone()
	t.end(c)
	sd := &s.docs[d]
	for v := len(sd.deltas) + 1; v > n; v-- {
		dl, err := s.parseDelta(t, root, sd.deltas[v-2])
		if err != nil {
			return nil, err
		}
		inv, err := s.invert(t, root, dl)
		if err != nil {
			return nil, err
		}
		a := t.begin("delta.apply", root)
		err = delta.Apply(doc, inv)
		t.end(a)
		if err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// getVersion mirrors handleGetVersion and returns the bytes it would
// serve.
func (s *shadow) getVersion(t *tracer, root, d, n int, miss bool) ([]byte, error) {
	doc, err := s.version(t, root, d, n, miss)
	if err != nil {
		return nil, err
	}
	w := t.begin("dom.serialize", root)
	var buf bytes.Buffer
	_, err = doc.WriteTo(&buf)
	t.end(w)
	return buf.Bytes(), err
}

// getRange mirrors handleGetDelta → Store.Aggregate for a..b.
func (s *shadow) getRange(t *tracer, root, d, from, to int, miss bool) ([]byte, error) {
	lo, hi := min(from, to), max(from, to)
	base, err := s.version(t, root, d, lo, miss)
	if err != nil {
		return nil, err
	}
	var chain []*delta.Delta
	for v := lo; v < hi; v++ {
		dl, err := s.parseDelta(t, root, s.docs[d].deltas[v-1])
		if err != nil {
			return nil, err
		}
		chain = append(chain, dl)
	}
	c := t.begin("diff.compose", root)
	agg, err := diff.Compose(base, chain...)
	t.end(c)
	if err != nil {
		return nil, err
	}
	if from > to {
		if agg, err = s.invert(t, root, agg); err != nil {
			return nil, err
		}
	}
	m := t.begin("delta.marshal", root)
	var buf bytes.Buffer
	_, err = agg.WriteTo(&buf)
	t.end(m)
	return buf.Bytes(), err
}

// tracedPass replays the set-up and the first limit ops of the script
// with every op done over HTTP, by direct store call and on the shadow.
func (h *harness) tracedPass(ctx context.Context, n int, box time.Duration, limit int) (*tracer, time.Duration, error) {
	dirs := [2]string{filepath.Join(h.dir, fmt.Sprintf("traced-%d-http", n)), filepath.Join(h.dir, fmt.Sprintf("traced-%d-direct", n))}
	for _, dir := range dirs {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, 0, err
		}
		defer os.RemoveAll(dir)
	}
	w := h.c.w
	d, err := startDaemon(dirs[0], w)
	if err != nil {
		return nil, 0, err
	}
	cl := newClient()
	defer cl.close()
	st, err := openStore(dirs[1], w)
	if err != nil {
		return nil, 0, errors.Join(err, d.stop(ctx))
	}
	run := func() (*tracer, time.Duration, error) {
		sh, err := newShadow(w)
		if err != nil {
			return nil, 0, err
		}
		if err := h.subscribe(ctx, cl, d.base); err != nil {
			return nil, 0, err
		}
		t := &tracer{pass: n, t0: time.Now()}
		// A miss of the version cache changes what an op costs; the
		// second store's own counter says whether this op had one.
		misses := int64(0)
		missed := func() bool {
			now := st.StorageStats().CacheMisses
			miss := now > misses
			misses = now
			return miss
		}
		tracedPut := func(kind string, doc, v int) error {
			t.startOp(kind)
			id, body := h.c.ids[doc], h.c.bodies[doc][v-1]
			r := t.begin("request", -1)
			_, _, ok := h.put(ctx, cl, d.base, doc, v)
			t.end(r)
			if !ok {
				return fmt.Errorf("traced %s: %s", kind, h.failures[len(h.failures)-1])
			}
			parsed, err := dom.ParseWithOptions(bytes.NewReader(body), uploadOptions())
			if err != nil {
				return err
			}
			s := t.begin("vstore.put", -1)
			_, _, err = st.PutMatcherContext(ctx, id, parsed, w.matcher)
			t.end(s)
			if err != nil {
				return err
			}
			miss := missed()
			root := t.begin("shadow", -1)
			if _, err := sh.materialize(t, root, doc, miss && v > 1); err != nil {
				return err
			}
			err = sh.put(ctx, t, root, id, doc, v, body)
			t.end(root)
			return err
		}
		for v := 1; v <= 1+w.preload; v++ {
			for doc := range h.c.ids {
				if err := tracedPut("setup_put", doc, v); err != nil {
					return nil, 0, err
				}
			}
		}
		start := time.Now()
		for i, o := range h.c.script[:limit] {
			if ctx.Err() != nil || h.expired(i, start, box) {
				break
			}
			id := h.c.ids[o.doc]
			switch o.kind {
			case opPut:
				if err := tracedPut(kindNames[opPut], o.doc, o.a); err != nil {
					return nil, 0, err
				}
			case opGetVersion:
				ot := t.startOp(kindNames[o.kind])
				ot.latest = o.a == len(sh.docs[o.doc].deltas)+1
				h.attempted++
				r := t.begin("request", -1)
				code, served, _, err := cl.do(ctx, http.MethodGet, h.readURL(d.base, o), nil)
				t.end(r)
				if err != nil || code != http.StatusOK || !bytes.Equal(served, h.c.bodies[o.doc][o.a-1]) {
					h.fail("traced GET %s v%d: status %d: %v", id, o.a, code, err)
					continue
				}
				s := t.begin("vstore.version", -1)
				_, err = st.Version(id, o.a)
				t.end(s)
				if err != nil {
					return nil, 0, err
				}
				miss := missed()
				root := t.begin("shadow", -1)
				got, err := sh.getVersion(t, root, o.doc, o.a, miss)
				t.end(root)
				if err != nil {
					return nil, 0, err
				}
				if !bytes.Equal(got, served) {
					h.fail("traced GET %s v%d: the shadow path and the daemon disagree", id, o.a)
				}
			case opGetRange:
				t.startOp(kindNames[o.kind])
				h.attempted++
				r := t.begin("request", -1)
				code, served, _, err := cl.do(ctx, http.MethodGet, h.readURL(d.base, o), nil)
				t.end(r)
				if err != nil || code != http.StatusOK {
					h.fail("traced GET %s %d..%d: status %d: %v", id, o.a, o.b, code, err)
					continue
				}
				served = bytes.Clone(served)
				s := t.begin("vstore.aggregate", -1)
				_, err = st.Aggregate(id, o.a, o.b)
				t.end(s)
				if err != nil {
					return nil, 0, err
				}
				miss := missed()
				root := t.begin("shadow", -1)
				got, err := sh.getRange(t, root, o.doc, o.a, o.b, miss)
				t.end(root)
				if err != nil {
					return nil, 0, err
				}
				if !bytes.Equal(got, served) {
					h.fail("traced GET %s %d..%d: the shadow path and the daemon disagree", id, o.a, o.b)
				}
			}
		}
		return t, time.Since(start), nil
	}
	t, wall, err := run()
	return t, wall, errors.Join(err, st.Close(), d.stop(ctx))
}

// writeTrace writes every span of the traced passes, one JSON object
// per line.
func writeTrace(path string, passes []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, t := range passes {
		for _, o := range t.ops {
			for _, s := range o.spans {
				if err := enc.Encode(s); err != nil {
					_ = f.Close() // the encode error is the one to report
					return err
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return err
	}
	return f.Close()
}

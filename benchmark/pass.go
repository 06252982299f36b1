package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"xydiff/internal/delta"
	"xydiff/internal/dom"
	"xydiff/internal/vstore"
)

// client is the one closed-loop client: one keep-alive connection, the
// next request sent only when the previous answer is drained.
type client struct {
	hc  *http.Client
	tr  *http.Transport
	buf []byte
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{tr: tr, hc: &http.Client{Transport: tr, Timeout: 20 * time.Second}}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and drains the answer. The latency runs from
// before the request is written until the body is read to its end. The
// returned body is only valid until the next call.
func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, 0, fmt.Errorf("%s %s: %w", method, url, err)
	}
	defer resp.Body.Close()
	buf := c.buf[:0]
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := resp.Body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, nil, 0, fmt.Errorf("%s %s: read answer: %w", method, url, err)
		}
	}
	dur := time.Since(start)
	c.buf = buf
	return resp.StatusCode, buf, dur, nil
}

// putAnswer is xydiffd's reply to PUT /docs/{id}.
type putAnswer struct {
	Version    int `json:"version"`
	DeltaOps   int `json:"deltaOps"`
	DeltaBytes int `json:"deltaBytes"`
}

// harness runs one workload's corpus against fresh daemons.
type harness struct {
	c    *corpus
	dir  string // scratch directory, emptied pass by pass
	seed maphash.Seed
	ref  *reference
	// corrupt, when set, may damage a served version before it is
	// checked (tests prove the check counts it).
	corrupt func(i int, body []byte)
	// expire, when set, replaces time.Now for the time box (tests force
	// a box to run out).
	expire func(i int) bool

	attempted int
	failed    int
	failures  []string
	notes     []string // for the reader of standard error
}

func (h *harness) fail(format string, args ...any) {
	h.failed++
	if len(h.failures) < 8 {
		h.failures = append(h.failures, fmt.Sprintf(format, args...))
	}
}

// readURL is the address of a scripted read.
func (h *harness) readURL(base string, o op) string {
	if o.kind == opGetVersion {
		return fmt.Sprintf("%s/docs/%s/versions/%d", base, h.c.ids[o.doc], o.a)
	}
	return fmt.Sprintf("%s/docs/%s/deltas/%d..%d", base, h.c.ids[o.doc], o.a, o.b)
}

func (h *harness) docURL(base string, d int) string {
	u := base + "/docs/" + h.c.ids[d]
	if m := h.c.w.matcher; m != "" {
		u += "?matcher=" + string(m)
	}
	return u
}

// put installs version v of document d and checks the acknowledged
// version number.
func (h *harness) put(ctx context.Context, cl *client, base string, d, v int) (putAnswer, time.Duration, bool) {
	h.attempted++
	var ans putAnswer
	code, body, dur, err := cl.do(ctx, http.MethodPut, h.docURL(base, d), h.c.bodies[d][v-1])
	switch {
	case err != nil:
		h.fail("%v", err)
	case code != http.StatusOK && code != http.StatusCreated:
		h.fail("PUT %s v%d: status %d: %s", h.c.ids[d], v, code, firstLine(body))
	case json.Unmarshal(body, &ans) != nil || ans.Version != v:
		h.fail("PUT %s v%d: answered %s", h.c.ids[d], v, firstLine(body))
	default:
		return ans, dur, true
	}
	return ans, dur, false
}

func firstLine(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 120 {
		s = s[:120]
	}
	return strings.ReplaceAll(s, "\n", " ")
}

// subscribe registers the workload's subscriptions.
func (h *harness) subscribe(ctx context.Context, cl *client, base string) error {
	for _, sub := range h.c.w.subs {
		body, err := json.Marshal(sub)
		if err != nil {
			return fmt.Errorf("subscription %s: %w", sub.ID, err)
		}
		h.attempted++
		code, ans, _, err := cl.do(ctx, http.MethodPost, base+"/subscriptions", body)
		if err != nil {
			return err
		}
		if code != http.StatusCreated {
			return fmt.Errorf("subscription %s: status %d: %s", sub.ID, code, firstLine(ans))
		}
	}
	return nil
}

// setUp starts a daemon on dir, registers the subscriptions and stores
// the first 1+preload versions of every document. The returned
// duration is the workload's set-up time.
func (h *harness) setUp(ctx context.Context, dir string, cl *client) (*daemon, time.Duration, error) {
	start := time.Now()
	d, err := startDaemon(dir, h.c.w)
	if err != nil {
		return nil, 0, err
	}
	if err := h.subscribe(ctx, cl, d.base); err != nil {
		return d, 0, err
	}
	for v := 1; v <= 1+h.c.w.preload; v++ {
		for doc := range h.c.ids {
			if _, _, ok := h.put(ctx, cl, d.base, doc, v); !ok {
				return d, 0, fmt.Errorf("set-up: %s", h.failures[len(h.failures)-1])
			}
		}
	}
	return d, time.Since(start), nil
}

// passResult is what one replay of the script against one fresh daemon
// measured.
type passResult struct {
	setup time.Duration
	// factor is the host's slowness against the reference during the
	// script (see ref.go).
	factor float64
	lat    []time.Duration // per scripted op; 0 = not reached
	done   int
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64

	gcCycles uint32
	gcPause  time.Duration
	heapLive float64 // bytes the daemon keeps live, after a GC

	putBytes, deltaBytes, deltaOps, perfectBytes int64
	getBytes                                     int64
	stored                                       int64

	stats    vstore.StorageStats
	appended int64
	// reopen is the fastest vstore.Open of the closed directory,
	// recovered the versions it found.
	reopen    time.Duration
	recovered int
	alerts    int64
	rejected  int64
	// ranges holds the hash of every get_range answer, by op index.
	ranges map[int]uint64
}

func (h *harness) expired(i int, start time.Time, box time.Duration) bool {
	if h.expire != nil {
		return h.expire(i)
	}
	return time.Since(start) > box
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// pass replays the script once: fresh directory, fresh daemon, set-up,
// then the timed ops until the script or the time box ends. The first
// pass of a run (first == nil) checks every served delta by applying
// it; later passes must be served the same bytes, whose hashes first
// holds. opens > 0 adds the after-restart check, opening the closed
// directory that many times.
func (h *harness) pass(ctx context.Context, n int, box time.Duration, first *passResult, opens int) (*passResult, error) {
	dir := filepath.Join(h.dir, fmt.Sprintf("pass-%d", n))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	base := heapAfterGC()

	cl := newClient()
	defer cl.close()
	d, setup, err := h.setUp(ctx, dir, cl)
	if err != nil {
		if d != nil {
			_ = d.stop(ctx) // the set-up error is the one to report
		}
		return nil, err
	}
	script := h.c.script
	res := &passResult{setup: setup, lat: make([]time.Duration, len(script)), ranges: make(map[int]uint64)}
	var answers map[int][]byte
	if first == nil {
		answers = make(map[int][]byte)
	}

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	durBefore := d.st.DurabilityStats()
	cpu0, start := cpuTime(), time.Now()
	var sampled time.Time
	samples := 0
	for i, o := range script {
		if ctx.Err() != nil || h.expired(i, start, box) {
			break
		}
		if time.Since(sampled) >= refPace {
			c := cpuTime()
			h.ref.sample()
			cpu0 += cpuTime() - c // the reference's CPU is not the program's
			sampled = time.Now()
			samples++
		}
		res.done++
		id := h.c.ids[o.doc]
		switch o.kind {
		case opPut:
			ans, dur, ok := h.put(ctx, cl, d.base, o.doc, o.a)
			if !ok {
				continue
			}
			res.lat[i] = dur
			res.putBytes += int64(len(h.c.bodies[o.doc][o.a-1]))
			res.deltaBytes += int64(ans.DeltaBytes)
			res.deltaOps += int64(ans.DeltaOps)
			res.perfectBytes += int64(h.c.perfect[o.doc][o.a-1])
		case opGetVersion:
			h.attempted++
			code, body, dur, err := cl.do(ctx, http.MethodGet, h.readURL(d.base, o), nil)
			if h.corrupt != nil {
				h.corrupt(i, body)
			}
			switch {
			case err != nil:
				h.fail("%v", err)
			case code != http.StatusOK:
				h.fail("GET %s v%d: status %d: %s", id, o.a, code, firstLine(body))
			case !bytes.Equal(body, h.c.bodies[o.doc][o.a-1]):
				h.fail("GET %s v%d: served bytes differ from what was PUT", id, o.a)
			default:
				res.lat[i] = dur
				res.getBytes += int64(len(body))
			}
		case opGetRange:
			h.attempted++
			code, body, dur, err := cl.do(ctx, http.MethodGet, h.readURL(d.base, o), nil)
			sum := maphash.Bytes(h.seed, body)
			var want uint64
			served := false
			if first != nil {
				want, served = first.ranges[i]
			}
			switch {
			case err != nil:
				h.fail("%v", err)
			case code != http.StatusOK:
				h.fail("GET %s %d..%d: status %d: %s", id, o.a, o.b, code, firstLine(body))
			case served && want != sum:
				h.fail("GET %s %d..%d: delta differs from the one the first pass was served", id, o.a, o.b)
			default:
				res.lat[i] = dur
				res.getBytes += int64(len(body))
				res.ranges[i] = sum
				if answers != nil {
					answers[i] = bytes.Clone(body)
				}
			}
		}
	}
	res.wall, res.cpu, res.factor = time.Since(start), cpuTime()-cpu0, h.ref.factor()
	runtime.ReadMemStats(&after)
	res.alloc = after.TotalAlloc - before.TotalAlloc - uint64(samples)*h.ref.alloc
	res.gcCycles = after.NumGC - before.NumGC
	res.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	res.stats = d.st.StorageStats()
	res.appended = d.st.DurabilityStats().AppendedBytes - durBefore.AppendedBytes
	res.alerts, res.rejected = h.daemonCounters(ctx, cl, d.base)

	for i, body := range answers {
		h.checkDelta(d.st, script[i], body)
	}
	answers = nil
	res.heapLive = float64(heapAfterGC()) - float64(base)

	if err := d.stop(ctx); err != nil {
		return nil, fmt.Errorf("stop daemon: %w", err)
	}
	if res.stored, err = dirSize(dir); err != nil {
		return nil, err
	}
	if opens > 0 {
		if err := h.checkReopened(dir, res, opens); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// checkDelta applies a served delta a..b to version a and compares the
// outcome with version b as it was PUT. The XID-labelled version a
// comes from the store directly; its bytes were checked over HTTP.
func (h *harness) checkDelta(st *vstore.Store, o op, body []byte) {
	id := h.c.ids[o.doc]
	d, err := delta.Parse(bytes.NewReader(body))
	if err != nil {
		h.fail("GET %s %d..%d: served delta does not parse: %v", id, o.a, o.b, err)
		return
	}
	from, err := st.Version(id, o.a)
	if err != nil {
		h.fail("GET %s %d..%d: version %d: %v", id, o.a, o.b, o.a, err)
		return
	}
	to, err := delta.ApplyClone(from, d)
	if err != nil {
		h.fail("GET %s %d..%d: served delta does not apply: %v", id, o.a, o.b, err)
		return
	}
	if !sameBytes(to, h.c.bodies[o.doc][o.b-1]) {
		h.fail("GET %s %d..%d: served delta does not lead to version %d", id, o.a, o.b, o.b)
	}
}

func sameBytes(doc *dom.Node, want []byte) bool {
	var buf bytes.Buffer
	_, err := doc.WriteTo(&buf)
	return err == nil && bytes.Equal(buf.Bytes(), want)
}

// daemonCounters reads the alert and shed-request totals off /metrics.
func (h *harness) daemonCounters(ctx context.Context, cl *client, base string) (alerts, rejected int64) {
	code, body, _, err := cl.do(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		h.fail("GET /metrics: status %d: %v", code, err)
		return 0, 0
	}
	for _, line := range strings.Split(string(body), "\n") {
		// A malformed line leaves the counter at 0, which the exact-count
		// checks of the test suite would notice.
		if v, ok := strings.CutPrefix(line, "xydiffd_alerts_total "); ok {
			_, _ = fmt.Sscan(v, &alerts)
		}
		if v, ok := strings.CutPrefix(line, "xydiffd_queue_rejected_total "); ok {
			_, _ = fmt.Sscan(v, &rejected)
		}
	}
	return alerts, rejected
}

// checkReopened restarts the engine on the closed directory and reads
// every acknowledged version of every document back.
func (h *harness) checkReopened(dir string, res *passResult, opens int) error {
	var st *vstore.Store
	for n := 1; n <= opens; n++ {
		start := time.Now()
		var err error
		if st, err = openStore(dir, h.c.w); err != nil {
			return fmt.Errorf("reopen: %w", err)
		}
		if took := time.Since(start); res.reopen == 0 || took < res.reopen {
			res.reopen = took
		}
		if n < opens {
			if err := st.Close(); err != nil {
				return fmt.Errorf("reopen: %w", err)
			}
		}
	}
	defer st.Close()
	rec := st.RecoveryStats()
	res.recovered = rec.SnapshotVersions + rec.JournalRecords
	acked := make([]int, len(h.c.ids))
	for d := range acked {
		acked[d] = 1 + h.c.w.preload
	}
	for i, o := range h.c.script {
		if o.kind == opPut && res.lat[i] > 0 {
			acked[o.doc] = o.a
		}
	}
	for d, id := range h.c.ids {
		if got := st.Versions(id); got != acked[d] {
			h.fail("after restart %s has %d versions, %d were acknowledged", id, got, acked[d])
			continue
		}
		for v := 1; v <= acked[d]; v++ {
			doc, err := st.Version(id, v)
			if err != nil {
				h.fail("after restart %s v%d: %v", id, v, err)
			} else if !sameBytes(doc, h.c.bodies[d][v-1]) {
				h.fail("after restart %s v%d differs from what was PUT", id, v)
			}
		}
	}
	return nil
}

func dirSize(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("size of %s: %w", dir, err)
	}
	return total, nil
}

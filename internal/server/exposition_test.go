package server

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"xydiff/internal/crawl"
	"xydiff/internal/diff"
	"xydiff/internal/vstore"
)

// metricsFixture starts the server the /metrics tests scrape: a
// two-shard store on disk behind a one-slot version cache, one diff
// worker and a one-slot queue, and a crawler that is enabled with one
// source but never run, so its values hold still. Documents "a" and "b"
// get two versions each, "a"'s diffed by BULD and "b"'s by SFTM, and
// reads of "a" restore it from its keyframe. Then come a checkpoint, a
// scrub pass and one PUT shed with 503.
func metricsFixture(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	st, err := vstore.Open(t.TempDir(), diff.Options{}, vstore.Config{Shards: 2, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s := New(st, Config{workers: 1, queueDepth: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	s.EnableCrawl(crawl.NewRegistry(), crawl.Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	do := func(method, path, body string) {
		t.Helper()
		if code, _, resp := doReq(t, method, ts.URL+path, body); code >= 300 {
			t.Fatalf("%s %s: %d %s", method, path, code, resp)
		}
	}
	do("POST", "/sources", `{"id":"src","url":"http://origin.invalid/doc"}`)
	for _, body := range []string{catalogV1, catalogV2} {
		do("PUT", "/docs/a", body)
		do("PUT", "/docs/b?matcher=sftm", body)
	}
	do("GET", "/docs/a/versions/1", "")
	do("GET", "/docs/a/deltas/1", "")
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.ScrubPass(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Shed one PUT: the worker is busy and the queue slot taken.
	release, started := make(chan struct{}), make(chan struct{})
	if err := s.pool.submit(func() { close(started); <-release }); err != nil {
		t.Fatal(err)
	}
	<-started
	if err := s.pool.submit(func() {}); err != nil {
		t.Fatal(err)
	}
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/c", `<r/>`); code != http.StatusServiceUnavailable {
		t.Fatalf("PUT under full queue = %d (%s), want 503", code, body)
	}
	close(release)
	// One worker runs jobs in order, so once this one has run the pool
	// is idle.
	drained := make(chan struct{})
	for s.pool.submit(func() { close(drained) }) != nil {
		time.Sleep(time.Millisecond)
	}
	<-drained
	return s, ts
}

// TestMetricsExposition parses /metrics as the Prometheus text format
// (version 0.0.4) and fails on every way it breaks it.
func TestMetricsExposition(t *testing.T) {
	_, ts := metricsFixture(t)
	code, hdr, body := doReq(t, "GET", ts.URL+"/metrics", "")
	if code != http.StatusOK || hdr.Get("Content-Type") != "text/plain; version=0.0.4" {
		t.Fatalf("GET /metrics: %d, Content-Type %q", code, hdr.Get("Content-Type"))
	}
	fams, errs := parseExposition(body)
	for _, e := range errs {
		t.Error(e)
	}
	if len(fams) == 0 {
		t.Fatal("/metrics has no families")
	}
	// The resident history gauge has one sample per form: an operator
	// reads how much of it is still XML after a restart.
	var forms []string
	for _, f := range fams {
		if f.name == "xydiffd_store_history_bytes" {
			for _, s := range f.samples {
				forms = append(forms, s.labels["form"])
			}
		}
	}
	if slices.Sort(forms); !slices.Equal(forms, []string{"frame", "xml"}) {
		t.Errorf("xydiffd_store_history_bytes has forms %q, want frame and xml", forms)
	}
}

// TestMetricFamiliesPinned: the families /metrics serves on the fixture
// (name, type and label keys) equal testdata/metric_families.txt, so no
// family is renamed, retyped, relabelled or dropped unnoticed. Regenerate
// the file with:
//
//	go test ./internal/server -run TestMetricFamiliesPinned -update
func TestMetricFamiliesPinned(t *testing.T) {
	_, ts := metricsFixture(t)
	fams, _ := parseExposition(metricsText(t, ts))
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b strings.Builder
	for _, f := range fams {
		var keys []string
		for _, s := range f.samples {
			for k := range s.labels {
				if !slices.Contains(keys, k) {
					keys = append(keys, k)
				}
			}
		}
		sort.Strings(keys)
		typ, labels := f.typ, strings.Join(keys, ",")
		if typ == "" {
			typ = "untyped"
		}
		if labels == "" {
			labels = "-"
		}
		fmt.Fprintf(&b, "%s %s %s\n", f.name, typ, labels)
	}
	checkGolden(t, "metric_families.txt", b.String())
}

// expFamily is one metric family as parseExposition reads it.
type expFamily struct {
	name, typ string
	help      bool
	samples   []expSample
}

type expSample struct {
	name   string // the family's name, plus its suffix in a histogram
	labels map[string]string
	value  float64
}

var (
	metricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelName  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseExposition reads a text-format exposition into its families, in
// order of appearance, and reports every way it breaks the format: a
// family whose lines are not one group, a HELP or TYPE line that is
// missing, repeated or after a sample, an unknown type, a malformed
// sample, and a histogram holding anything but _bucket, _sum and _count
// samples, buckets that are not cumulative, or a +Inf bucket that
// differs from _count.
func parseExposition(text string) ([]*expFamily, []string) {
	var (
		fams   []*expFamily
		errs   []string
		byName = map[string]*expFamily{}
		cur    *expFamily
	)
	enter := func(name string) *expFamily {
		switch f := byName[name]; {
		case cur != nil && cur.name == name:
		case f != nil:
			errs = append(errs, fmt.Sprintf("%s: the family's lines are not one group", name))
			cur = f
		default:
			cur = &expFamily{name: name}
			byName[name] = cur
			fams = append(fams, cur)
		}
		return cur
	}
	for _, line := range strings.Split(text, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "), strings.HasPrefix(line, "# TYPE "):
			what := line[2:6]
			name, arg, _ := strings.Cut(line[7:], " ")
			if !metricName.MatchString(name) {
				errs = append(errs, fmt.Sprintf("%s line names no metric: %q", what, line))
				continue
			}
			f := enter(name)
			if len(f.samples) > 0 {
				errs = append(errs, fmt.Sprintf("%s: %s line after a sample", name, what))
			}
			if what == "HELP" {
				if f.help {
					errs = append(errs, name+": repeated HELP line")
				}
				f.help = true
				continue
			}
			if f.typ != "" {
				errs = append(errs, name+": repeated TYPE line")
			}
			if !slices.Contains([]string{"counter", "gauge", "histogram", "summary", "untyped"}, arg) {
				errs = append(errs, fmt.Sprintf("%s: unknown type %q", name, arg))
			}
			f.typ = arg
		case line == "" || strings.HasPrefix(line, "#"):
			// Blank lines and comments carry nothing.
		default:
			s, err := parseSample(line)
			if err != nil {
				errs = append(errs, err.Error())
				continue
			}
			name := s.name
			if cur != nil && cur.typ == "histogram" {
				for _, suffix := range []string{"_bucket", "_sum", "_count"} {
					if strings.TrimSuffix(s.name, suffix) == cur.name {
						name = cur.name
					}
				}
			}
			f := enter(name)
			f.samples = append(f.samples, s)
		}
	}
	for _, f := range fams {
		if !f.help {
			errs = append(errs, f.name+": no HELP line")
		}
		if f.typ == "" {
			errs = append(errs, f.name+": no TYPE line")
		}
		if f.typ == "histogram" {
			errs = append(errs, checkHistogram(f)...)
		}
	}
	return fams, errs
}

// parseSample reads one sample line: a metric name, optional labels,
// the value and an optional timestamp.
func parseSample(line string) (expSample, error) {
	s := expSample{labels: map[string]string{}}
	bad := func(why string) (expSample, error) { return s, fmt.Errorf("sample %q: %s", line, why) }
	i := strings.IndexAny(line, "{ ")
	if i < 0 || !metricName.MatchString(line[:i]) {
		return bad("no metric name")
	}
	s.name, line = line[:i], line[i:]
	if rest, ok := strings.CutPrefix(line, "{"); ok {
		for !strings.HasPrefix(rest, "}") {
			key, after, ok := strings.Cut(rest, `="`)
			if !ok || !labelName.MatchString(key) {
				return bad("malformed label")
			}
			if _, dup := s.labels[key]; dup {
				return bad("repeated label " + key)
			}
			var val strings.Builder
			j := 0
			for ; j < len(after) && after[j] != '"'; j++ {
				if after[j] == '\\' {
					if j++; j == len(after) || !strings.ContainsRune(`\"n`, rune(after[j])) {
						return bad("bad escape in label " + key)
					}
					if after[j] == 'n' {
						val.WriteByte('\n')
						continue
					}
				}
				val.WriteByte(after[j])
			}
			if j == len(after) {
				return bad("unterminated label " + key)
			}
			s.labels[key] = val.String()
			rest = after[j+1:]
			if r, ok := strings.CutPrefix(rest, ","); ok {
				rest = r
			} else if !strings.HasPrefix(rest, "}") {
				return bad("labels not separated by commas")
			}
		}
		line = rest[1:]
	}
	fields := strings.Fields(line)
	if !strings.HasPrefix(line, " ") || len(fields) == 0 || len(fields) > 2 {
		return bad("want a value and at most a timestamp after the name")
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return bad("value: " + err.Error())
	}
	s.value = v
	return s, nil
}

// checkHistogram holds f to the histogram rules: only _bucket samples
// (with an le label), _sum and _count; and per label set, buckets in
// ascending le with cumulative counts, ending at le="+Inf" with the
// value of _count.
func checkHistogram(f *expFamily) []string {
	type series struct {
		les, counts []float64
		count       float64
		hasCount    bool
	}
	var errs []string
	bySet := map[string]*series{}
	for _, s := range f.samples {
		suffix := strings.TrimPrefix(s.name, f.name)
		le, hasLE := s.labels["le"]
		if !(suffix == "_bucket" && hasLE) && suffix != "_sum" && suffix != "_count" {
			errs = append(errs, fmt.Sprintf("%s: histogram sample %s %v is not a _bucket, _sum or _count", f.name, s.name, s.labels))
			continue
		}
		rest := maps.Clone(s.labels)
		delete(rest, "le")
		set := fmt.Sprint(rest)
		sr := bySet[set]
		if sr == nil {
			sr = &series{}
			bySet[set] = sr
		}
		switch suffix {
		case "_bucket":
			bound, err := strconv.ParseFloat(le, 64)
			if n := len(sr.les); err != nil || n > 0 && (bound <= sr.les[n-1] || s.value < sr.counts[n-1]) {
				errs = append(errs, fmt.Sprintf("%s%s: bucket le=%q is out of order or not cumulative", f.name, set, le))
			}
			sr.les, sr.counts = append(sr.les, bound), append(sr.counts, s.value)
		case "_count":
			sr.count, sr.hasCount = s.value, true
		}
	}
	for set, sr := range bySet {
		n := len(sr.les)
		if n == 0 || !math.IsInf(sr.les[n-1], 1) || !sr.hasCount || sr.counts[n-1] != sr.count {
			errs = append(errs, fmt.Sprintf("%s%s: the last bucket must be le=\"+Inf\" and equal _count", f.name, set))
		}
	}
	return errs
}

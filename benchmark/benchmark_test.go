package main

import (
	"context"
	"hash/maphash"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"xydiff/internal/changesim"
	"xydiff/internal/dom"
)

// mini shrinks a workload to a few small documents and two rounds, so
// that a whole run takes a fraction of a second.
func mini(t *testing.T, name string) *workload {
	t.Helper()
	w := workloadByName(name)
	if w == nil {
		t.Fatalf("no workload %q", name)
	}
	w.docs, w.rounds, w.preload = 4, 2, min(w.preload, 1)
	w.getVersions, w.getRanges = 6, 6
	w.cache = min(w.cache, 2)
	w.base = func(rng *rand.Rand) *dom.Node { return changesim.CatalogOfSize(rng, 1500) }
	if w.matcher != "" {
		w.base = func(rng *rand.Rand) *dom.Node { return changesim.HTMLPage(rng, 3) }
	}
	return w
}

// runMini measures w once; tweak may install the harness's test hooks.
func runMini(t *testing.T, w *workload, seed int64, traced bool, tweak func(*harness)) (*result, int) {
	t.Helper()
	c, err := newCorpus(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{c: c, dir: t.TempDir(), seed: maphash.MakeSeed(), ref: newReference()}
	if tweak != nil {
		tweak(h)
	}
	res, code, err := h.measure(context.Background(), nominalSeconds, traced, h.dir, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res, code
}

func TestManifestAndOutputAgree(t *testing.T) {
	m, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var listed [2][]metricDef
	for _, e := range m.EndToEnd {
		listed[0] = append(listed[0], metricDef{e.Name, e.Unit})
	}
	for _, l := range m.PerLayer {
		listed[1] = append(listed[1], metricDef{l.Name, l.Unit})
	}
	for i, table := range [2][]metricDef{endToEnd, perLayer} {
		if len(listed[i]) != len(table) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark has %d", len(listed[i]), len(table))
		}
		for j, d := range table {
			if listed[i][j] != d {
				t.Errorf("BENCHMARK.json has %v where the benchmark has %v", listed[i][j], d)
			}
			if !name.MatchString(d.name) {
				t.Errorf("metric name %q is outside the contract's alphabet", d.name)
			}
		}
	}
	if len(m.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if m.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json has workload %q where the benchmark has %q", m.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			table := endToEnd
			if traced {
				table = perLayer
			}
			res, code := runMini(t, mini(t, w.name), 1, traced, nil)
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: exit %d, %d of %d failed", w.name, traced, code, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(table) {
				t.Errorf("%s traced=%v: %d metrics printed, want %d", w.name, traced, len(res.Metrics), len(table))
			}
			for _, d := range table {
				if got, ok := res.Metrics[d.name]; !ok || got.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s printed as %+v", w.name, traced, d.name, got)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join("..", m.Command[len(m.Command)-1])); err != nil {
		t.Errorf("BENCHMARK.json's command: %v", err)
	}
}

// The counts repeat exactly for one seed; they are the only numbers a
// claim may cite without paired runs.
func TestCountsRepeatForOneSeed(t *testing.T) {
	counts := map[bool][]string{
		false: {"delta_ratio", "stored_bytes_per_input_byte"},
		true: {"alert.alerts_per_put", "vstore.fsyncs_per_put", "vstore.cache_hit_ratio",
			"delta.bytes_per_put", "delta.ops_per_put", "vstore.appended_bytes_per_input_byte"},
	}
	for traced, names := range counts {
		a, _ := runMini(t, mini(t, "history_mix"), 1, traced, nil)
		b, _ := runMini(t, mini(t, "history_mix"), 1, traced, nil)
		c, _ := runMini(t, mini(t, "history_mix"), 2, traced, nil)
		same := true
		for _, n := range names {
			if a.Metrics[n].Value != b.Metrics[n].Value {
				t.Errorf("%s: %v then %v with one seed", n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
			if a.Metrics[n].Value == 0 {
				t.Errorf("%s is 0", n)
			}
			same = same && a.Metrics[n].Value == c.Metrics[n].Value
		}
		if same {
			t.Errorf("traced=%v: another seed gave the same counts", traced)
		}
	}
}

func TestWrongByteIsAFailedOp(t *testing.T) {
	hit := 0
	res, code := runMini(t, mini(t, "ingest_large"), 1, false, func(h *harness) {
		h.corrupt = func(i int, body []byte) {
			if hit == 0 && len(body) > 0 {
				body[len(body)/2] ^= 1
				hit++
			}
		}
	})
	if hit != 1 || res.Failed != 1 || res.Correct || code != 1 {
		t.Errorf("one damaged answer: %d failed, correct=%v, exit %d", res.Failed, res.Correct, code)
	}
}

func TestExpiredBoxStillReports(t *testing.T) {
	res, code := runMini(t, mini(t, "history_mix"), 1, true, func(h *harness) {
		h.expire = func(i int) bool { return i >= 5 }
	})
	if code != 0 || !res.Correct {
		t.Errorf("exit %d, correct=%v", code, res.Correct)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(perLayer))
	}
	if res.Metrics["harness.ops_skipped"].Value <= 0 {
		t.Errorf("harness.ops_skipped = %v after a forced expiry", res.Metrics["harness.ops_skipped"].Value)
	}
}

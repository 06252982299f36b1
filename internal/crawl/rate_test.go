package crawl

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

func TestChangeRateEWMA(t *testing.T) {
	// Never visited: unknown, reported as the midpoint.
	ghost, err := NewRegistry().add(Source{ID: "ghost", URL: "http://origin.example/ghost"})
	if err != nil {
		t.Fatal(err)
	}
	if ghost.ChangeRate != 0.5 || ghost.Fetches != 0 {
		t.Fatalf("unvisited rate = %v after %d fetches; want 0.5, 0", ghost.ChangeRate, ghost.Fetches)
	}

	// A document that changes on every visit converges to 1.
	var hot Source
	for i := 0; i < 6; i++ {
		hot.observeVisit(true)
	}
	if hot.ChangeRate != 1 || hot.Fetches != 6 {
		t.Fatalf("hot rate = %v after %d fetches; want 1, 6", hot.ChangeRate, hot.Fetches)
	}

	// A static document converges to 0: the first visit installs
	// version 1, every revisit finds it unchanged.
	var cold Source
	cold.observeVisit(true)
	for i := 0; i < 10; i++ {
		cold.observeVisit(false)
	}
	if cold.ChangeRate >= 0.01 {
		t.Fatalf("cold rate = %v; want < 0.01", cold.ChangeRate)
	}

	// A mixed history sits strictly between the extremes.
	var warm Source
	for i := 0; i < 20; i++ {
		warm.observeVisit(i%2 == 0)
	}
	if warm.ChangeRate < 0.2 || warm.ChangeRate > 0.8 {
		t.Fatalf("warm rate = %v; want within (0.2, 0.8)", warm.ChangeRate)
	}
}

func TestChangeRateEWMARecovers(t *testing.T) {
	// One spurious "unchanged" visit must not peg a hot document cold:
	// the EWMA pulls back toward 1 within a couple of visits.
	var s Source
	for i := 0; i < 5; i++ {
		s.observeVisit(true)
	}
	s.observeVisit(false)
	s.observeVisit(true)
	s.observeVisit(true)
	if s.ChangeRate < 0.8 {
		t.Fatalf("rate after recovery = %v; want >= 0.8", s.ChangeRate)
	}
}

// toggleOrigin serves a document that changes on a GET only while
// changing is set; otherwise it serves the previous body again.
func toggleOrigin(t *testing.T) (*httptest.Server, *atomic.Bool) {
	t.Helper()
	var changing atomic.Bool
	var n atomic.Int64
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if changing.Load() {
			n.Add(1)
		}
		fmt.Fprintf(w, "<doc><n>%d</n></doc>", n.Load())
	}))
	t.Cleanup(origin.Close)
	return origin, &changing
}

// visit runs one fetch cycle of id, whose body changes or not.
func visit(t *testing.T, c *Crawler, changing *atomic.Bool, id string, changed bool) Source {
	t.Helper()
	changing.Store(changed)
	c.fetchCycle(context.Background(), id)
	src, ok := c.reg.Get(id)
	if !ok {
		t.Fatalf("source %s gone", id)
	}
	return src
}

// TestReregisteredSourceStartsUnknown: a source registered again under
// an id, replacing the old one or after its removal, starts at the
// unknown rate instead of inheriting what the old source learned.
func TestReregisteredSourceStartsUnknown(t *testing.T) {
	origin, changing := toggleOrigin(t)
	c := New(NewRegistry(), newMemIngester().ingest, Config{perHost: -1, Logger: quietLogger()})
	src := Source{ID: "doc", URL: origin.URL + "/doc"}
	train := func() {
		t.Helper()
		if _, err := c.Add(src); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if s := visit(t, c, changing, "doc", true); s.ChangeRate != 1 {
				t.Fatalf("rate after %d changed visits = %v, want 1", s.Fetches, s.ChangeRate)
			}
		}
	}

	train()
	again, err := c.Add(src)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := c.reg.Get("doc"); again.ChangeRate != 0.5 || got.ChangeRate != 0.5 || got.Fetches != 0 {
		t.Errorf("replaced source: rate %v (stored %v) after %d fetches, want 0.5 and 0",
			again.ChangeRate, got.ChangeRate, got.Fetches)
	}

	train()
	if ok, err := c.reg.Remove("doc"); !ok || err != nil {
		t.Fatalf("remove = %v, %v", ok, err)
	}
	if _, err := c.Add(src); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.reg.Get("doc"); got.ChangeRate != 0.5 {
		t.Errorf("source removed and added again: rate %v, want 0.5", got.ChangeRate)
	}
}

// TestRestartKeepsChangeRate: the change rate is saved with the
// registry, so the first visit after a restart moves a middling rate
// by one EWMA step instead of setting it to 0 or 1. The interval then
// stays clear of both bounds, beyond the ±10% jitter.
func TestRestartKeepsChangeRate(t *testing.T) {
	origin, changing := toggleOrigin(t)
	path := filepath.Join(t.TempDir(), "crawl-sources.json")
	cfg := Config{MinInterval: time.Second, MaxInterval: 100 * time.Second, perHost: -1, Logger: quietLogger()}
	reg, err := OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	ing := newMemIngester()
	c := New(reg, ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "doc", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	var trained Source
	for i := 0; i < 7; i++ {
		trained = visit(t, c, changing, "doc", i%2 == 0)
	}
	if trained.ChangeRate < 0.6 || trained.ChangeRate > 0.7 {
		t.Fatalf("trained rate = %v, want about 2/3", trained.ChangeRate)
	}
	if err := reg.Save(); err != nil {
		t.Fatal(err)
	}

	reg, err = OpenRegistry(path)
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := reg.Get("doc"); s.ChangeRate != trained.ChangeRate {
		t.Fatalf("reopened rate = %v, saved %v", s.ChangeRate, trained.ChangeRate)
	}
	// The restarted crawler feeds the same store, which still holds the
	// version the origin serves.
	c = New(reg, ing.ingest, cfg)
	s := visit(t, c, changing, "doc", false)
	if want := trained.ChangeRate / 2; s.ChangeRate != want {
		t.Errorf("rate after one unchanged visit = %v, want %v", s.ChangeRate, want)
	}
	lo := time.Duration(1.1 * float64(cfg.MinInterval))
	hi := time.Duration(0.9 * float64(cfg.MaxInterval))
	if s.Interval <= lo || s.Interval >= hi {
		t.Errorf("interval after restart = %v, want strictly inside (%v, %v)", s.Interval, lo, hi)
	}
}

// TestRegistryFromBeforeChangeRateLoads: testdata/crawl-sources.json
// was saved by a crawler that kept no change rate. Every source loads
// at the unknown rate, whatever its Fetches, and its first visit moves
// the rate from there.
func TestRegistryFromBeforeChangeRateLoads(t *testing.T) {
	reg, err := OpenRegistry(filepath.Join("testdata", "crawl-sources.json"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"fast": 6, "static": 6, "unvisited": 0}
	if reg.Len() != len(want) {
		t.Fatalf("loaded %d sources, want %d", reg.Len(), len(want))
	}
	for id, fetches := range want {
		s, ok := reg.Get(id)
		if !ok || s.Fetches != fetches || s.ChangeRate != 0.5 {
			t.Errorf("source %s: present %v, %d fetches, rate %v; want %d fetches at rate 0.5",
				id, ok, s.Fetches, s.ChangeRate, fetches)
		}
	}
	static, _ := reg.Get("static")
	if static.ETag != `"static-1"` {
		t.Errorf("static ETag = %q", static.ETag)
	}
	static.observeVisit(false)
	if static.ChangeRate != 0.25 {
		t.Errorf("static rate after an unchanged visit = %v, want 0.25", static.ChangeRate)
	}
}

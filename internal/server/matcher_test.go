package server

import (
	"net/http"
	"strings"
	"testing"

	"xydiff/internal/diff"
)

// TestPutMatcherOverride drives the per-PUT ?matcher= override end to
// end: the sftm diff is recorded under its own metrics label, the delta
// still applies (version 1 reconstructs), and a bad name is a 400
// before any parse work happens.
func TestPutMatcherOverride(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	pageV1 := `<html><body><h1>Shop</h1><ul><li>apple pie recipe</li><li>orange juice guide</li></ul></body></html>`
	pageV2 := `<html><body><h1>Shop</h1><ul><li>orange juice guide</li><li>apple pie recipe</li></ul></body></html>`

	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/page?matcher=sftm", pageV1); code != http.StatusCreated {
		t.Fatalf("PUT v1: %d %s", code, body)
	}
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/page?matcher=sftm", pageV2); code != http.StatusOK {
		t.Fatalf("PUT v2: %d %s", code, body)
	}
	if n := s.Metrics().DiffCountByMatcher(diff.MatcherSFTM); n != 1 {
		t.Fatalf("sftm diff count = %d, want 1", n)
	}
	if n := s.Metrics().DiffCountByMatcher(diff.MatcherBULD); n != 0 {
		t.Fatalf("buld diff count = %d, want 0", n)
	}
	// Its phase time is SFTM's too: every BULD phase sample stays 0.
	fams, _ := parseExposition(metricsText(t, ts))
	var buld, sftm int
	var sftmSeconds float64
	for _, f := range fams {
		if f.name != "xydiffd_diff_phase_seconds_total" {
			continue
		}
		for _, smp := range f.samples {
			switch smp.labels["matcher"] {
			case "buld":
				buld++
				if smp.value != 0 {
					t.Errorf("phase %s under matcher=buld = %g after one sftm diff, want 0", smp.labels["phase"], smp.value)
				}
			case "sftm":
				sftm++
				sftmSeconds += smp.value
			}
		}
	}
	if buld != 5 || sftm != 5 || sftmSeconds == 0 {
		t.Errorf("phase samples: %d under matcher=buld, %d under matcher=sftm summing to %gs; want 5 each, sftm's nonzero", buld, sftm, sftmSeconds)
	}

	// The sftm-produced delta must reconstruct version 1 like any other.
	code, _, v1 := doReq(t, "GET", ts.URL+"/docs/page/versions/1", "")
	if code != http.StatusOK {
		t.Fatalf("GET v1: %d", code)
	}
	if !strings.Contains(v1, "apple pie recipe") || strings.Index(v1, "apple") > strings.Index(v1, "orange") {
		t.Fatalf("v1 reconstruction wrong: %s", v1)
	}

	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/page?matcher=nonsense", pageV1); code != http.StatusBadRequest {
		t.Fatalf("bad matcher: %d %s", code, body)
	}

	// A plain PUT keeps the store default and labels under buld.
	if code, _, body := doReq(t, "PUT", ts.URL+"/docs/page", pageV1); code != http.StatusOK {
		t.Fatalf("PUT v3: %d %s", code, body)
	}
	if n := s.Metrics().DiffCountByMatcher(diff.MatcherBULD); n != 1 {
		t.Fatalf("buld diff count after default PUT = %d, want 1", n)
	}
}

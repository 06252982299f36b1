package crawl

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"xydiff/internal/retry"
)

func TestParseRetryAfter(t *testing.T) {
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"7", 7 * time.Second},
		{" 3 ", 3 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"soon", 0},
		{"3.5", 0}, // delta-seconds is an integer per RFC 9110
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in); got != c.want {
			t.Errorf("ParseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// HTTP-date form: a moment in the future parses to a positive wait,
	// one in the past to zero.
	future := time.Now().Add(10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(future); got <= 0 || got > 11*time.Second {
		t.Errorf("ParseRetryAfter(future date) = %v", got)
	}
	past := time.Now().Add(-10 * time.Second).UTC().Format(http.TimeFormat)
	if got := parseRetryAfter(past); got != 0 {
		t.Errorf("ParseRetryAfter(past date) = %v, want 0", got)
	}
}

// TestRetryAfterSurvivesTransientWrap: the typed hint must stay
// reachable through the transient() wrapping fetchOnce applies to
// ingest failures, or fetchCycle could never see it.
func TestRetryAfterSurvivesTransientWrap(t *testing.T) {
	base := &RetryAfterError{After: 5 * time.Second, Err: errors.New("busy")}
	wrapped := transient(fmt.Errorf("ingest d0: %w", error(base)))
	if !isTransient(wrapped) {
		t.Fatal("wrapped RetryAfterError not transient")
	}
	var ra *RetryAfterError
	if !errors.As(wrapped, &ra) || ra.After != 5*time.Second {
		t.Fatalf("RetryAfterError lost in the chain: %v", wrapped)
	}
}

// TestRetryAfterPacesInCycleRetries: an origin shedding load with
// 503 + Retry-After must see its hint honored (clamped by the retry
// policy's Max) instead of the fixed exponential schedule. The policy
// base is 2ms and the hint 2s with a 120ms cap, so the gap between the
// two attempts proves which path the crawler took.
func TestRetryAfterPacesInCycleRetries(t *testing.T) {
	var mu sync.Mutex
	var hits []time.Time
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		hits = append(hits, time.Now())
		n := len(hits)
		mu.Unlock()
		if n <= 2 {
			w.Header().Set("Retry-After", "2")
			http.Error(w, "shedding", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/xml")
		fmt.Fprint(w, "<doc><v>ok</v></doc>")
	}))
	defer origin.Close()

	ing := newMemIngester()
	cfg := Config{
		MinInterval:  10 * time.Millisecond,
		MaxInterval:  50 * time.Millisecond,
		concurrency:  1,
		perHost:      -1,
		timeout:      time.Second,
		attempts:     2,
		circuitAfter: 100, // keep the circuit out of this test's way
		backoff:      retry.Policy{Base: 2 * time.Millisecond, Max: 120 * time.Millisecond},
		Logger:       quietLogger(),
	}
	c := New(NewRegistry(), ing.ingest, cfg)
	if _, err := c.Add(Source{ID: "shed", URL: origin.URL + "/doc"}); err != nil {
		t.Fatal(err)
	}
	stop := startCrawler(t, c)
	defer stop()
	waitFor(t, 5*time.Second, "origin to recover and ingest", func() bool {
		return ing.callCount("shed") >= 1
	})
	stop()

	mu.Lock()
	defer mu.Unlock()
	if len(hits) < 2 {
		t.Fatalf("only %d origin hits", len(hits))
	}
	// Attempt 1 → attempt 2 is the in-cycle retry after the first 503:
	// the 2s hint clamps to the 120ms Max; the fixed schedule would have
	// come back after ~2ms.
	gap := hits[1].Sub(hits[0])
	if gap < 90*time.Millisecond {
		t.Errorf("retry after 503 came back in %v: Retry-After hint ignored", gap)
	}
	if gap > 2*time.Second {
		t.Errorf("retry waited %v: hint not clamped by the retry policy's Max", gap)
	}
}

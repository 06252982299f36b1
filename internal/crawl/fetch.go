package crawl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// fetchOutcome is what one successful HTTP attempt produced.
type fetchOutcome struct {
	notModified  bool
	changed      bool // ingester installed a new version
	bytes        int64
	etag         string
	lastModified string
}

// transientError marks a failure worth retrying (network trouble, 5xx,
// 429, ingest backpressure) as opposed to a permanent one (4xx, body
// too large) that only the next scheduled cycle should revisit.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(err error) error { return &transientError{err: err} }

// RetryAfterError is a transient failure where the server named its
// own pacing: an origin's 503 or 429 carrying a Retry-After header, or
// a version the ingesting daemon shed under load. The retry loop
// honors After — clamped by the retry policy's Max — instead of its
// computed backoff, so a loaded server's "come back in N seconds" is
// respected rather than hammered through on a fixed schedule.
type RetryAfterError struct {
	After time.Duration // server-suggested wait; pre-clamp
	Err   error
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("%v (retry after %s)", e.Err, e.After)
}
func (e *RetryAfterError) Unwrap() error { return e.Err }

// ParseRetryAfter reads a Retry-After header value: delta-seconds or
// an HTTP-date. Zero means absent/unparseable/in the past.
func ParseRetryAfter(v string) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := time.Until(t); d > 0 {
			return d
		}
	}
	return 0
}

func isTransient(err error) bool {
	var t *transientError
	return errors.As(err, &t)
}

// fetchCycle runs one complete visit of the source: up to maxAttempts
// HTTP attempts with backoff between them, then the success or failure
// bookkeeping, and finally rescheduling. A source removed mid-flight is
// dropped silently.
func (c *Crawler) fetchCycle(ctx context.Context, id string) {
	src, ok := c.reg.Get(id)
	if !ok {
		return
	}
	var out fetchOutcome
	var err error
	for attempt := 0; ; attempt++ {
		out, err = c.fetchOnce(ctx, src)
		if err == nil || ctx.Err() != nil {
			break
		}
		if !isTransient(err) || attempt+1 >= c.cfg.attempts {
			break
		}
		c.metrics.addRetry()
		delay := c.cfg.backoff.Delay(attempt, nil) // in-cycle pacing; jitter comes from the cross-cycle path
		var ra *RetryAfterError
		if errors.As(err, &ra) {
			// The server told us when to come back; its word wins over
			// the computed backoff, bounded by the policy's Max.
			delay = c.cfg.backoff.Clamp(ra.After)
		}
		c.log.Debug("crawl retry", "source", id, "attempt", attempt+1, "delay", delay, "err", err)
		pause := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			pause.Stop()
			return
		case <-pause.C:
		}
	}
	if ctx.Err() != nil {
		return // shutting down: leave the source state as it was
	}
	if err != nil {
		c.failCycle(id, err)
		return
	}
	c.succeedCycle(id, out)
}

// awaitHost returns when the caller may start a request to host: after
// its planned slot, and then after whatever claimHost says is left of
// the interval since the previous request's start.
func (c *Crawler) awaitHost(ctx context.Context, host string) error {
	wait := c.reserveHost(host, time.Now())
	for {
		if wait > 0 {
			pause := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				pause.Stop()
				return ctx.Err()
			case <-pause.C:
			}
		}
		if wait = c.claimHost(host, time.Now()); wait <= 0 {
			return nil
		}
	}
}

// fetchOnce is one conditional GET attempt against the source.
func (c *Crawler) fetchOnce(ctx context.Context, src Source) (fetchOutcome, error) {
	u, err := url.Parse(src.URL)
	if err != nil {
		return fetchOutcome{}, fmt.Errorf("parse url: %w", err)
	}
	if err := c.awaitHost(ctx, u.Host); err != nil {
		return fetchOutcome{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, c.cfg.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, src.URL, nil)
	if err != nil {
		return fetchOutcome{}, fmt.Errorf("build request: %w", err)
	}
	req.Header.Set("User-Agent", userAgent)
	if src.ETag != "" {
		req.Header.Set("If-None-Match", src.ETag)
	}
	if src.LastModified != "" {
		req.Header.Set("If-Modified-Since", src.LastModified)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		// Timeouts, refused connections, mid-body hangs: all transient.
		return fetchOutcome{}, transient(fmt.Errorf("fetch %s: %w", src.URL, err))
	}
	defer func() { _ = resp.Body.Close() }() // best-effort; the read below saw every byte that matters
	switch {
	case resp.StatusCode == http.StatusNotModified:
		return fetchOutcome{notModified: true}, nil
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode >= 500 || resp.StatusCode == http.StatusTooManyRequests:
		err := fmt.Errorf("fetch %s: status %d", src.URL, resp.StatusCode)
		if after := ParseRetryAfter(resp.Header.Get("Retry-After")); after > 0 {
			return fetchOutcome{}, transient(&RetryAfterError{After: after, Err: err})
		}
		return fetchOutcome{}, transient(err)
	default:
		return fetchOutcome{}, fmt.Errorf("fetch %s: status %d", src.URL, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		// Truncated or reset bodies are transient: the next attempt may
		// read the document whole.
		return fetchOutcome{}, transient(fmt.Errorf("read %s: %w", src.URL, err))
	}
	if int64(len(body)) > c.cfg.MaxBodyBytes {
		return fetchOutcome{}, fmt.Errorf("fetch %s: body exceeds %d bytes", src.URL, c.cfg.MaxBodyBytes)
	}
	if resp.ContentLength > 0 && int64(len(body)) < resp.ContentLength {
		return fetchOutcome{}, transient(fmt.Errorf("read %s: truncated body (%d of %d bytes)",
			src.URL, len(body), resp.ContentLength))
	}
	changed, err := c.ingest(ctx, src.ID, body)
	if err != nil {
		// Ingest failures (parse limits, store backpressure) retry like
		// network trouble: the content may be fine on the next attempt.
		return fetchOutcome{}, transient(fmt.Errorf("ingest %s: %w", src.ID, err))
	}
	return fetchOutcome{
		changed:      changed,
		bytes:        int64(len(body)),
		etag:         resp.Header.Get("ETag"),
		lastModified: resp.Header.Get("Last-Modified"),
	}, nil
}

// succeedCycle records a completed visit: counters, validators, the
// change rate, circuit reset, and the adaptive reschedule, all in one
// registry update.
func (c *Crawler) succeedCycle(id string, out fetchOutcome) {
	changed := out.changed && !out.notModified
	c.metrics.addFetch(out)
	now := time.Now()
	var next time.Time
	wasOpen := false
	ok := c.reg.update(id, func(s *Source) {
		wasOpen = s.CircuitOpen(now)
		s.observeVisit(changed)
		if out.notModified {
			s.NotModified++
		} else {
			if out.etag != "" || out.lastModified != "" {
				s.ETag, s.LastModified = out.etag, out.lastModified
			}
			if changed {
				s.Changes++
			}
		}
		s.Failures = 0
		s.CircuitOpenUntil = time.Time{}
		s.Interval = c.revisit(s.ChangeRate)
		s.NextFetch = now.Add(s.Interval)
		next = s.NextFetch
	})
	if !ok {
		return // removed mid-flight
	}
	if wasOpen {
		c.log.Info("crawl circuit closed", "source", id)
	}
	c.schedule(id, next)
}

// failCycle records a failed visit and either backs the source off or
// opens its circuit.
func (c *Crawler) failCycle(id string, err error) {
	c.metrics.addFailure()
	now := time.Now()
	var next time.Time
	opened := false
	failures := 0
	ok := c.reg.update(id, func(s *Source) {
		s.Errors++
		s.Failures++
		failures = s.Failures
		if s.Failures >= c.cfg.circuitAfter {
			// Open (or re-arm) the circuit: park the source for the
			// cooldown, then let exactly one probe through.
			opened = !s.CircuitOpen(now)
			s.CircuitOpenUntil = now.Add(c.cfg.cooldown)
			next = s.CircuitOpenUntil
		} else {
			next = now.Add(c.backoffDelay(s.Failures))
		}
		s.NextFetch = next
	})
	if !ok {
		return
	}
	if opened {
		c.metrics.addCircuitOpen()
		c.log.Warn("crawl circuit opened", "source", id, "failures", failures,
			"cooldown", c.cfg.cooldown, "err", err)
	} else {
		c.log.Warn("crawl fetch failed", "source", id, "failures", failures,
			"next", next.Format(time.RFC3339), "err", err)
	}
	c.schedule(id, next)
}

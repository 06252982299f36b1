// Package crawl is the acquisition layer of the paper's Figure 1 — the
// crawler box that feeds everything downstream. It polls a registry of
// HTTP sources and ingests new versions into the repository/diff
// pipeline, revisiting each document at a frequency proportional to its
// observed change rate (Xyleme's refresh policy): the scheduler asks
// the stats collector for the document's change rate and interpolates
// the revisit interval between a configured floor and ceiling, so
// fast-changing documents are polled often and static ones converge to
// the maximum interval.
//
// The fetch path is production-shaped: a bounded worker pool, per-host
// request spacing, conditional GET (ETag / If-Modified-Since) so
// unchanged documents never reach parse or diff, per-attempt timeouts,
// retry with exponential backoff and jitter (internal/retry), and a
// circuit breaker that parks persistently failing sources instead of
// hammering them.
package crawl

import (
	"container/heap"
	"context"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"xydiff/internal/retry"
	"xydiff/internal/stats"
)

// Ingester installs one fetched document version into the pipeline
// (parse, store, diff, alerts — whatever the embedder wires up).
// changed reports whether the body produced a new version: true for a
// first version or a non-empty delta, false when the content was
// byte-equivalent to the stored latest. Errors are treated as
// transient: the source retries on the backoff schedule, or after a
// *RetryAfterError's After, and the fetch cycle counts a failure.
type Ingester func(ctx context.Context, docID string, body []byte) (changed bool, err error)

// The revisit interval's bounds when Config leaves them zero.
const (
	DefaultMinInterval = 15 * time.Second
	DefaultMaxInterval = time.Hour
)

// Config tunes the crawler. The zero value picks production defaults.
type Config struct {
	// MinInterval floors the adaptive revisit interval — the rate the
	// hottest document is polled at (default 15s).
	MinInterval time.Duration
	// MaxInterval caps the revisit interval — how stale a static
	// document may grow (default 1h).
	MaxInterval time.Duration
	// Concurrency bounds in-flight fetches (default GOMAXPROCS, max 8).
	Concurrency int
	// PerHostInterval spaces successive requests to one host (default
	// 250ms), politeness against origins serving many sources.
	PerHostInterval time.Duration
	// FetchTimeout bounds one HTTP attempt (default 10s).
	FetchTimeout time.Duration
	// MaxBodyBytes caps a fetched body (default 16 MiB); larger
	// responses fail the fetch.
	MaxBodyBytes int64
	// Retry paces re-attempts within a fetch cycle and the spacing of
	// failing cycles (zero value = retry package defaults).
	Retry retry.Policy
	// MaxAttempts bounds HTTP attempts within one fetch cycle before
	// the cycle counts as failed (default 3).
	MaxAttempts int
	// CircuitThreshold is how many consecutive failed cycles open the
	// source's circuit (default 5).
	CircuitThreshold int
	// CircuitCooldown is how long an open circuit parks the source
	// before a single probe is allowed through (default 1m).
	CircuitCooldown time.Duration
	// UserAgent identifies the crawler to origins.
	UserAgent string
	// Client is the HTTP client to fetch with (default a fresh
	// http.Client; timeouts come from FetchTimeout contexts).
	Client *http.Client
	// Logger receives fetch lifecycle logs (default slog.Default).
	Logger *slog.Logger
	// Seed fixes the schedule/backoff jitter for tests (default 1).
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.MinInterval <= 0 {
		c.MinInterval = DefaultMinInterval
	}
	if c.MaxInterval <= c.MinInterval {
		c.MaxInterval = max(DefaultMaxInterval, c.MinInterval)
	}
	if c.Concurrency <= 0 {
		c.Concurrency = min(runtime.GOMAXPROCS(0), 8)
	}
	if c.PerHostInterval < 0 {
		c.PerHostInterval = 0
	} else if c.PerHostInterval == 0 {
		c.PerHostInterval = 250 * time.Millisecond
	}
	if c.FetchTimeout <= 0 {
		c.FetchTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.CircuitThreshold <= 0 {
		c.CircuitThreshold = 5
	}
	if c.CircuitCooldown <= 0 {
		c.CircuitCooldown = time.Minute
	}
	if c.UserAgent == "" {
		c.UserAgent = "xydiffd/1 (+https://github.com/xydiff)"
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Crawler polls the registry's sources and feeds the ingester.
type Crawler struct {
	cfg     Config
	reg     *Registry
	ingest  Ingester
	rates   *stats.Collector
	metrics *Metrics
	log     *slog.Logger

	mu        sync.Mutex
	queue     schedHeap            // sources waiting for their due time
	queued    map[string]bool      // ids currently in the heap
	hostNext  map[string]time.Time // per-host next planned request start
	hostStart map[string]time.Time // per-host start of the latest request
	rng       *rand.Rand           // schedule + backoff jitter
	wake      chan struct{}        // poked when the head of the queue may have changed
}

// New wires a crawler over the registry. rates is the change-rate
// signal the scheduler reads and the crawler feeds (one visit
// observation per completed fetch); sharing the server's collector
// means direct PUTs and crawled fetches train the same rates.
func New(reg *Registry, ingest Ingester, rates *stats.Collector, cfg Config) *Crawler {
	cfg = cfg.withDefaults()
	c := &Crawler{
		cfg:       cfg,
		reg:       reg,
		ingest:    ingest,
		rates:     rates,
		metrics:   newMetrics(),
		log:       cfg.Logger,
		queued:    make(map[string]bool),
		hostNext:  make(map[string]time.Time),
		hostStart: make(map[string]time.Time),
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		wake:      make(chan struct{}, 1),
	}
	c.metrics.queueDepth = c.depth
	c.metrics.sources = reg.Len
	c.metrics.openCircuits = func() int { return reg.OpenCircuits(time.Now()) }
	// Seed the schedule with everything already registered; persisted
	// NextFetch times in the past simply come due immediately.
	for _, s := range reg.List() {
		c.schedule(s.ID, s.NextFetch)
	}
	return c
}

// Metrics exposes the crawler's counters and gauges.
func (c *Crawler) Metrics() *Metrics { return c.metrics }

// Registry exposes the source registry (for status endpoints).
func (c *Crawler) Registry() *Registry { return c.reg }

// Add registers the source and schedules its first fetch immediately.
func (c *Crawler) Add(src Source) (Source, error) {
	s, err := c.reg.Add(src)
	if err != nil {
		return Source{}, err
	}
	when := s.NextFetch // zero = due now
	c.schedule(s.ID, when)
	return s, nil
}

// Remove unregisters the source; an in-flight fetch of it finishes but
// its result is discarded and it is never rescheduled. The heap entry,
// if any, dies lazily: pop skips unknown ids.
func (c *Crawler) Remove(id string) (bool, error) { return c.reg.Remove(id) }

// Status is one source plus its live change-rate estimate.
type Status struct {
	Source
	// Rate is the EWMA change rate driving the schedule (0 static .. 1
	// changing every visit; 0.5 = not yet observed).
	Rate float64
	// RateObservations is how many visits trained the rate.
	RateObservations int
}

// Status reports all sources with their schedule state, sorted by id.
func (c *Crawler) Status() []Status {
	srcs := c.reg.List()
	out := make([]Status, 0, len(srcs))
	for _, s := range srcs {
		rate, n := c.rates.ChangeRate(s.ID)
		out = append(out, Status{Source: s, Rate: rate, RateObservations: n})
	}
	return out
}

// Run fetches until ctx is canceled: a dispatcher releases sources as
// they come due to a pool of Concurrency workers. It returns nil on a
// clean (context) shutdown after all in-flight fetches finished.
func (c *Crawler) Run(ctx context.Context) error {
	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.Concurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				c.fetchCycle(ctx, id)
			}
		}()
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
dispatch:
	for {
		id, due, ok := c.peek()
		if !ok {
			select {
			case <-ctx.Done():
				break dispatch
			case <-c.wake:
			}
			continue
		}
		if wait := time.Until(due); wait > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-c.wake:
			case <-timer.C:
			}
			continue
		}
		id, ok = c.pop(id)
		if !ok {
			continue // head changed under us or the source was removed
		}
		select {
		case <-ctx.Done():
			break dispatch
		case work <- id:
		}
	}
	close(work)
	wg.Wait()
	return nil
}

// schedule (re)queues id for when (zero time = due immediately).
func (c *Crawler) schedule(id string, when time.Time) {
	c.mu.Lock()
	if !c.queued[id] {
		heap.Push(&c.queue, schedItem{id: id, due: when})
		c.queued[id] = true
	} else {
		c.queue.reschedule(id, when)
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// peek returns the id and due time at the head of the queue.
func (c *Crawler) peek() (string, time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.queue) == 0 {
		return "", time.Time{}, false
	}
	return c.queue[0].id, c.queue[0].due, true
}

// pop removes id if it is still the head and still registered.
func (c *Crawler) pop(id string) (string, bool) {
	c.mu.Lock()
	if len(c.queue) == 0 || c.queue[0].id != id {
		c.mu.Unlock()
		return "", false
	}
	item := heap.Pop(&c.queue).(schedItem)
	delete(c.queued, item.id)
	c.mu.Unlock()
	if _, ok := c.reg.Get(item.id); !ok {
		return "", false // removed while queued
	}
	return item.id, true
}

// depth reports how many sources are queued (not in flight).
func (c *Crawler) depth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// revisit computes the adaptive revisit interval for id: linear
// interpolation between MinInterval (rate 1: changes every visit) and
// MaxInterval (rate 0: never changes), ±10% jitter so sources trained
// to the same rate do not synchronize.
func (c *Crawler) revisit(id string) time.Duration {
	rate, _ := c.rates.ChangeRate(id)
	span := float64(c.cfg.MaxInterval - c.cfg.MinInterval)
	d := float64(c.cfg.MinInterval) + (1-rate)*span
	c.mu.Lock()
	d *= 1 + 0.1*(2*c.rng.Float64()-1)
	c.mu.Unlock()
	if d < float64(c.cfg.MinInterval) {
		d = float64(c.cfg.MinInterval)
	}
	if d > float64(c.cfg.MaxInterval) {
		d = float64(c.cfg.MaxInterval)
	}
	return time.Duration(d)
}

// backoffDelay is the cross-cycle spacing after `failures` consecutive
// failed cycles.
func (c *Crawler) backoffDelay(failures int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.Retry.Delay(failures-1, c.rng)
}

// reserveHost plans a request to host at now: it returns how long the
// caller waits before claiming the host, and moves the host's next slot
// one PerHostInterval on, so concurrent waiters wake spread out.
func (c *Crawler) reserveHost(host string, now time.Time) time.Duration {
	if c.cfg.PerHostInterval <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.hostNext[host]
	if slot.Before(now) {
		slot = now
	}
	c.hostNext[host] = slot.Add(c.cfg.PerHostInterval)
	return slot.Sub(now)
}

// claimHost starts a request to host at now and returns 0 when
// PerHostInterval has passed since the previous request's start;
// otherwise it claims nothing and returns what is left of the interval.
// The spacing is counted from actual starts, not from planned slots: a
// waiter that wakes late pushes the next request back instead of
// leaving it closer than the interval (politeness spacing).
func (c *Crawler) claimHost(host string, now time.Time) time.Duration {
	if c.cfg.PerHostInterval <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if wait := c.hostStart[host].Add(c.cfg.PerHostInterval).Sub(now); wait > 0 {
		return wait
	}
	c.hostStart[host] = now
	return 0
}

// schedHeap is a min-heap of sources by due time.
type schedItem struct {
	id  string
	due time.Time
}

type schedHeap []schedItem

func (h schedHeap) Len() int           { return len(h) }
func (h schedHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h schedHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }

func (h *schedHeap) Push(x any) { *h = append(*h, x.(schedItem)) }

func (h *schedHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// reschedule moves an already-queued id to a new due time.
func (h *schedHeap) reschedule(id string, due time.Time) {
	for i := range *h {
		if (*h)[i].id == id {
			(*h)[i].due = due
			heap.Fix(h, i)
			return
		}
	}
}

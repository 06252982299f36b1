// Package crawl is the acquisition layer of the paper's Figure 1 — the
// crawler box that feeds everything downstream. It polls a registry of
// HTTP sources and ingests new versions into the repository/diff
// pipeline, revisiting each document at a frequency proportional to its
// observed change rate (Xyleme's refresh policy): each source keeps an
// EWMA of how often its visits found it changed, and the scheduler
// interpolates the revisit interval from it between a configured floor
// and ceiling, so fast-changing documents are polled often and static
// ones converge to the maximum interval.
//
// The fetch path is production-shaped: a bounded worker pool, per-host
// request spacing, conditional GET (ETag / If-Modified-Since) so
// unchanged documents never reach parse or diff, per-attempt timeouts,
// retry with exponential backoff and jitter (internal/retry), and a
// circuit breaker that parks persistently failing sources instead of
// hammering them.
package crawl

import (
	"cmp"
	"container/heap"
	"context"
	"log/slog"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"xydiff/internal/retry"
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

// Config holds the crawler's operator decisions. The zero value picks
// production defaults; the fetch tuning is the constants below.
type Config struct {
	// MinInterval floors the adaptive revisit interval — the rate the
	// hottest document is polled at (default 15s).
	MinInterval time.Duration
	// MaxInterval caps the revisit interval — how stale a static
	// document may grow (default 1h).
	MaxInterval time.Duration
	// MaxBodyBytes caps a fetched body (default 16 MiB); larger
	// responses fail the fetch.
	MaxBodyBytes int64
	// Logger receives fetch lifecycle logs (default slog.Default).
	Logger *slog.Logger

	// concurrency, perHost, timeout, backoff, attempts, circuitAfter
	// and cooldown, when set, replace the constants below. Only this
	// package's tests set them, to reach millisecond timings; a
	// negative perHost turns politeness off.
	concurrency, attempts, circuitAfter int
	perHost, timeout, cooldown          time.Duration
	backoff                             retry.Policy
}

// Fetch tuning. No flag sets these, and no measurement has shown
// another value winning.
const (
	// maxFetchers caps the fetch workers, GOMAXPROCS of them otherwise.
	maxFetchers = 8
	// perHostInterval spaces successive request starts to one
	// host:port, politeness against origins serving many sources.
	perHostInterval = 250 * time.Millisecond
	// fetchTimeout bounds one HTTP attempt.
	fetchTimeout = 10 * time.Second
	// maxAttempts bounds HTTP attempts within one fetch cycle before
	// the cycle counts as failed.
	maxAttempts = 3
	// circuitThreshold is how many consecutive failed cycles open a
	// source's circuit, and circuitCooldown how long an open circuit
	// parks it before a single probe is let through.
	circuitThreshold = 5
	circuitCooldown  = time.Minute
	// userAgent identifies the crawler to origins.
	userAgent = "xydiffd/1 (+https://github.com/xydiff)"
)

// fetchRetry paces re-attempts within a fetch cycle and the spacing of
// failing cycles.
var fetchRetry = retry.Policy{Base: 500 * time.Millisecond, Max: time.Minute}

func (c Config) withDefaults() Config {
	if c.MinInterval <= 0 {
		c.MinInterval = DefaultMinInterval
	}
	if c.MaxInterval <= c.MinInterval {
		c.MaxInterval = max(DefaultMaxInterval, c.MinInterval)
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	c.concurrency = cmp.Or(c.concurrency, min(runtime.GOMAXPROCS(0), maxFetchers))
	c.perHost = cmp.Or(c.perHost, perHostInterval)
	c.timeout = cmp.Or(c.timeout, fetchTimeout)
	c.backoff = cmp.Or(c.backoff, fetchRetry)
	c.attempts = cmp.Or(c.attempts, maxAttempts)
	c.circuitAfter = cmp.Or(c.circuitAfter, circuitThreshold)
	c.cooldown = cmp.Or(c.cooldown, circuitCooldown)
	return c
}

// Crawler polls the registry's sources and feeds the ingester.
type Crawler struct {
	cfg     Config
	reg     *Registry
	ingest  Ingester
	metrics *Metrics
	log     *slog.Logger

	mu        sync.Mutex
	queue     schedHeap            // sources waiting for their due time
	queued    map[string]bool      // ids currently in the heap
	hostNext  map[string]time.Time // per-host next planned request start
	hostStart map[string]time.Time // per-host start of the latest request
	rng       *rand.Rand           // schedule + backoff jitter, fixed seed
	wake      chan struct{}        // poked when the head of the queue may have changed
}

// New wires a crawler over the registry. The crawler learns each
// source's change rate from its own completed fetches and keeps it on
// the source, where the registry saves it.
func New(reg *Registry, ingest Ingester, cfg Config) *Crawler {
	cfg = cfg.withDefaults()
	c := &Crawler{
		cfg:       cfg,
		reg:       reg,
		ingest:    ingest,
		metrics:   newMetrics(),
		log:       cfg.Logger,
		queued:    make(map[string]bool),
		hostNext:  make(map[string]time.Time),
		hostStart: make(map[string]time.Time),
		rng:       rand.New(rand.NewSource(1)),
		wake:      make(chan struct{}, 1),
	}
	c.metrics.queueDepth = c.depth
	c.metrics.sources = reg.Len
	c.metrics.openCircuits = func() int { return reg.openCircuits(time.Now()) }
	// Seed the schedule with everything already registered; persisted
	// NextFetch times in the past simply come due immediately.
	for _, s := range reg.List() {
		c.schedule(s.ID, s.NextFetch)
	}
	return c
}

// Metrics exposes the crawler's counters and gauges.
func (c *Crawler) Metrics() *Metrics { return c.metrics }

// Registry exposes the source registry: status endpoints read it, and
// Remove on it unregisters a source. An in-flight fetch of a removed
// source finishes, but its result is discarded and the source is never
// rescheduled; its heap entry dies lazily, as pop skips unknown ids.
func (c *Crawler) Registry() *Registry { return c.reg }

// Add registers the source and schedules its first fetch immediately.
func (c *Crawler) Add(src Source) (Source, error) {
	s, err := c.reg.add(src)
	if err != nil {
		return Source{}, err
	}
	when := s.NextFetch // zero = due now
	c.schedule(s.ID, when)
	return s, nil
}

// Run fetches until ctx is canceled: a dispatcher releases sources as
// they come due to a pool of fetch workers. It returns nil on a
// clean (context) shutdown after all in-flight fetches finished.
func (c *Crawler) Run(ctx context.Context) error {
	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < c.cfg.concurrency; i++ {
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

// revisit computes the adaptive revisit interval for a change rate:
// linear interpolation between MinInterval (rate 1: changes every
// visit) and MaxInterval (rate 0: never changes), ±10% jitter so
// sources trained to the same rate do not synchronize.
func (c *Crawler) revisit(rate float64) time.Duration {
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
	return c.cfg.backoff.Delay(failures-1, c.rng)
}

// reserveHost plans a request to host at now: it returns how long the
// caller waits before claiming the host, and moves the host's next slot
// one perHostInterval on, so concurrent waiters wake spread out.
func (c *Crawler) reserveHost(host string, now time.Time) time.Duration {
	if c.cfg.perHost <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	slot := c.hostNext[host]
	if slot.Before(now) {
		slot = now
	}
	c.hostNext[host] = slot.Add(c.cfg.perHost)
	return slot.Sub(now)
}

// claimHost starts a request to host at now and returns 0 when
// perHostInterval has passed since the previous request's start;
// otherwise it claims nothing and returns what is left of the interval.
// The spacing is counted from actual starts, not from planned slots: a
// waiter that wakes late pushes the next request back instead of
// leaving it closer than the interval (politeness spacing).
func (c *Crawler) claimHost(host string, now time.Time) time.Duration {
	if c.cfg.perHost <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if wait := c.hostStart[host].Add(c.cfg.perHost).Sub(now); wait > 0 {
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

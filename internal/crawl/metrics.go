package crawl

import "sync"

// Metrics is the crawler's counters and gauges. Snapshot copies them:
// xydiffd renders the copy on its /metrics as the xydiffd_crawl_*
// families and in /healthz.
type Metrics struct {
	mu           sync.Mutex
	fetches      int64 // completed fetch cycles (200 or 304)
	notModified  int64 // conditional GETs answered 304
	ingests      int64 // fetches that installed a new version
	unchanged    int64 // 200s whose content was byte-equivalent
	retries      int64 // in-cycle HTTP re-attempts
	failures     int64 // fetch cycles that exhausted their attempts
	circuitOpens int64 // times a circuit transitioned to open
	fetchedBytes int64 // body bytes downloaded (200s only)

	// gauges polled at scrape time
	queueDepth   func() int
	sources      func() int
	openCircuits func() int
}

func newMetrics() *Metrics { return &Metrics{} }

func (m *Metrics) addFetch(out fetchOutcome) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fetches++
	switch {
	case out.notModified:
		m.notModified++
	case out.changed:
		m.ingests++
	default:
		m.unchanged++
	}
	m.fetchedBytes += out.bytes
}

func (m *Metrics) addRetry() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retries++
}

func (m *Metrics) addFailure() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.failures++
}

func (m *Metrics) addCircuitOpen() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.circuitOpens++
}

// Snapshot is a point-in-time copy of the counters, for /metrics,
// /healthz, tests and status logs.
type Snapshot struct {
	Fetches      int64
	NotModified  int64
	Ingests      int64
	Unchanged    int64
	Retries      int64
	Failures     int64
	CircuitOpens int64
	FetchedBytes int64
	OpenCircuits int
	QueueDepth   int
	Sources      int
}

// Snapshot copies the counters and polls the gauges.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	s := Snapshot{
		Fetches:      m.fetches,
		NotModified:  m.notModified,
		Ingests:      m.ingests,
		Unchanged:    m.unchanged,
		Retries:      m.retries,
		Failures:     m.failures,
		CircuitOpens: m.circuitOpens,
		FetchedBytes: m.fetchedBytes,
	}
	queueDepth, sources, openCircuits := m.queueDepth, m.sources, m.openCircuits
	m.mu.Unlock()
	// Gauges poll other locks (registry, scheduler); never under m.mu.
	if queueDepth != nil {
		s.QueueDepth = queueDepth()
	}
	if sources != nil {
		s.Sources = sources()
	}
	if openCircuits != nil {
		s.OpenCircuits = openCircuits()
	}
	return s
}

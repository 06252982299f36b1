// Package retry is the repo's one retry/backoff policy: capped
// exponential growth with proportional jitter. The crawler uses it to
// space re-attempts against flaky origins and to pace circuit probes;
// the HTTP server uses it to grow the Retry-After hint while its diff
// queue keeps shedding load. Centralizing the arithmetic keeps every
// retry loop honest about the three properties that matter — growth is
// bounded (Max), synchronized callers are de-correlated (jitter), and
// recovery starts over (Reset).
package retry

import (
	"math/rand"
	"sync"
	"time"
)

// Policy describes a capped exponential backoff: the delay doubles per
// attempt up to Max, and a jittered delay spreads uniformly over ±20%
// of its value. The zero value picks the defaults noted on each field.
type Policy struct {
	// Base is the delay before the first retry (default 500ms).
	Base time.Duration
	// Max caps the grown (pre-jitter) delay (default 1m). Jitter never
	// pushes a returned delay beyond Max.
	Max time.Duration
}

const (
	// multiplier grows the delay per attempt.
	multiplier = 2
	// jitter is the spread of a jittered delay, as a fraction of it, so
	// callers that fail together do not retry together.
	jitter = 0.2
)

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = 500 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = time.Minute
	}
	if p.Max < p.Base {
		p.Max = p.Base
	}
	return p
}

// Delay returns the backoff before retry attempt n (0-based: attempt 0
// is the first retry, delayed by about Base). rng drives the jitter; a
// nil rng disables it, making Delay deterministic. The result is always
// in (0, Max].
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 0; i < attempt; i++ {
		d *= multiplier
		if d >= float64(p.Max) {
			break // already at the cap; avoid float overflow
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if rng != nil {
		d *= 1 + jitter*(2*rng.Float64()-1)
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	if d < 1 {
		d = 1 // never zero: a zero delay turns a backoff loop into a busy loop
	}
	return time.Duration(d)
}

// Clamp bounds a server-suggested delay (a Retry-After hint) to the
// policy's cap: the server knows how long it wants to shed load, but
// the client's Max stays the final word so a hostile or confused
// origin cannot park a fetcher for hours. Non-positive suggestions
// fall back to Base — "retry soon" without busy-looping.
func (p Policy) Clamp(suggested time.Duration) time.Duration {
	p = p.withDefaults()
	if suggested <= 0 {
		return p.Base
	}
	if suggested > p.Max {
		return p.Max
	}
	return suggested
}

// Backoff is a stateful retry pacer: each Next call returns the delay
// for one more consecutive failure, and Reset (on success) starts the
// progression over. Safe for concurrent use.
type Backoff struct {
	policy Policy

	mu      sync.Mutex
	rng     *rand.Rand
	attempt int
}

// New returns a Backoff over p, with jitter seeded from seed (so tests
// can pin the sequence).
func New(p Policy, seed int64) *Backoff {
	return &Backoff{policy: p, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the delay for the current attempt and advances the
// attempt counter.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.policy.Delay(b.attempt, b.rng)
	b.attempt++
	return d
}

// Attempt reports how many Next calls happened since the last Reset.
func (b *Backoff) Attempt() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.attempt
}

// Reset restarts the progression; the next Next returns ~Base again.
func (b *Backoff) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempt = 0
}

package server

import (
	"errors"
	"sync"
)

// ErrQueueFull is returned by submit when the diff queue is at
// capacity; handlers translate it into 503 + Retry-After so load is
// shed at the edge instead of piling up.
var ErrQueueFull = errors.New("server: diff queue full")

// ErrClosed is returned by submit after close.
var ErrClosed = errors.New("server: worker pool closed")

// pool is a bounded worker pool: a fixed number of goroutines draining
// a fixed-capacity job channel. Submission never blocks — a full queue
// is backpressure, reported to the caller.
type pool struct {
	jobs    chan func()
	workers int
	wg      sync.WaitGroup

	mu     sync.RWMutex
	closed bool
}

func newPool(workers, depth int) *pool {
	p := &pool{jobs: make(chan func(), depth), workers: workers}
	for i := 0; i < workers; i++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			for job := range p.jobs {
				job()
			}
		}()
	}
	return p
}

// submit enqueues job, failing fast with ErrQueueFull when the queue is
// at capacity.
func (p *pool) submit(job func()) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.closed {
		return ErrClosed
	}
	select {
	case p.jobs <- job:
		return nil
	default:
		return ErrQueueFull
	}
}

// depth reports how many jobs are queued but not yet picked up.
func (p *pool) depth() int { return len(p.jobs) }

// close stops accepting jobs, drains the queue, and waits for in-flight
// jobs to finish.
func (p *pool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	close(p.jobs)
	p.mu.Unlock()
	p.wg.Wait()
}

package vstore

import (
	"context"
	"errors"
	"fmt"
	"time"

	"xydiff/internal/store"
)

// Group commit: every Put encodes its record and submits it to the
// shard's committer goroutine, which gathers whatever is pending into
// one batch, writes it with a single segment append and — under
// SyncAlways — a single fsync, then acknowledges every Put in the
// batch. No Put is acknowledged before its record is on stable
// storage, yet the fsync count is one per batch, not one per Put.
//
// Batching is adaptive: a lone writer's record is committed
// immediately (no latency tax), while concurrent writers pile up
// behind the in-progress fsync and commit together. The committer
// lingers up to maxDelay only while the in-flight counter says more
// writers are coming than it has gathered.

// ErrBusy reports that a shard's group-commit queue is saturated: the
// Put was not applied and can be retried after a backoff. The HTTP
// layer maps it to 503 + Retry-After.
var ErrBusy = errors.New("vstore: group-commit queue saturated")

// errClosed fails writes after Close.
var errClosed = errors.New("vstore: store closed")

// commitReq is one record waiting for durability; errc (buffered)
// receives the batch outcome.
type commitReq struct {
	rec  []byte
	errc chan error
}

// appendDurable submits one encoded record to the shard's group-commit
// writer and blocks until the record's batch is durable (SyncAlways)
// or at least written (other policies). Called from PutDetailed under
// the document's write lock, before the in-memory commit. When the
// shard's queue is full it fails fast with ErrBusy instead of
// blocking, so the HTTP layer can shed load.
func (s *Store) appendDurable(sh *shard, rec []byte) error {
	if s.dir == "" {
		return nil // no directory: memory holds the only copy
	}
	sh.inflight.Add(1)
	defer sh.inflight.Add(-1)
	req := &commitReq{rec: rec, errc: make(chan error, 1)}
	if err := s.enqueue(sh, req); err != nil {
		return err
	}
	return <-req.errc
}

// enqueue hands req to the shard's committer without blocking. The
// read lock pairs with Close's write lock so the send can never race
// the channel close.
func (s *Store) enqueue(sh *shard, req *commitReq) error {
	sh.sendMu.RLock()
	defer sh.sendMu.RUnlock()
	if sh.sendClosed {
		return errClosed
	}
	select {
	case sh.commitCh <- req:
		return nil
	default:
		sh.stats.rejected.Add(1)
		return fmt.Errorf("shard %d: %w", sh.idx, ErrBusy)
	}
}

// committer is a shard's group-commit goroutine: it owns all writes to
// the shard's segment journal. It exits when the commit channel closes
// (Close), after flushing everything already queued.
func (s *Store) committer(sh *shard) {
	defer close(sh.writerDone)
	for {
		req, ok := <-sh.commitCh
		if !ok {
			return
		}
		batch, closed := s.gather(sh, req)
		s.commitBatch(sh, batch)
		if closed {
			return
		}
	}
}

// gather collects the batch starting at first: everything already
// queued, then — while the in-flight counter shows more writers are
// racing toward the queue than the batch holds — up to maxDelay of
// lingering for them. Returns closed=true when the commit channel
// closed during gathering (the batch still commits).
func (s *Store) gather(sh *shard, first *commitReq) (batch []*commitReq, closed bool) {
	batch = append(batch, first)
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for len(batch) < maxBatch {
		select {
		case req, ok := <-sh.commitCh:
			if !ok {
				return batch, true
			}
			batch = append(batch, req)
			continue
		default:
		}
		// Queue drained. Linger only when writers beyond this batch are
		// in flight (between their inflight.Add and their send, or about
		// to retry); a lone writer commits immediately.
		if sh.inflight.Load() <= int64(len(batch)) {
			return batch, false
		}
		if timer == nil {
			timer = time.NewTimer(maxDelay)
		}
		select {
		case req, ok := <-sh.commitCh:
			if !ok {
				return batch, true
			}
			batch = append(batch, req)
		case <-timer.C:
			return batch, false
		}
	}
	return batch, false
}

// commitBatch writes the batch as one segment append (one fsync under
// SyncAlways) and acknowledges every request with the outcome. The
// segment writer either persists the whole batch or truncates it back
// entirely, so acknowledgements stay all-or-nothing.
func (s *Store) commitBatch(sh *shard, batch []*commitReq) {
	var buf []byte
	if len(batch) == 1 {
		buf = batch[0].rec
	} else {
		total := 0
		for _, req := range batch {
			total += len(req.rec)
		}
		buf = make([]byte, 0, total)
		for _, req := range batch {
			buf = append(buf, req.rec...)
		}
	}
	err := sh.seg.appendBatch(buf, s.cfg.Sync == store.SyncAlways)
	if err == nil {
		sh.stats.appends.Add(int64(len(batch)))
		sh.stats.appendedBytes.Add(int64(len(buf)))
		sh.stats.batches.Add(1)
		sh.stats.batchRecords.Add(int64(len(batch)))
		if s.cfg.Sync == store.SyncAlways {
			sh.stats.syncs.Add(1)
		}
		for {
			max := sh.stats.maxBatch.Load()
			if int64(len(batch)) <= max || sh.stats.maxBatch.CompareAndSwap(max, int64(len(batch))) {
				break
			}
		}
	}
	for _, req := range batch {
		req.errc <- err
	}
}

// syncLoop is the SyncInterval flusher: it fsyncs every shard's active
// segment once per interval until Close cancels ctx.
func (s *Store) syncLoop(ctx context.Context) {
	defer s.loops.Done()
	t := time.NewTicker(syncInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			for _, sh := range s.shards {
				if err := sh.seg.sync(); err == nil {
					sh.stats.syncs.Add(1)
				}
			}
		}
	}
}

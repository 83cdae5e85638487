package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// ErrClosed is returned by Submit after Close has begun: the pipeline is
// draining and accepts no new work.
var ErrClosed = errors.New("serve: batcher closed")

// BatcherConfig bounds the dynamic micro-batcher.
type BatcherConfig struct {
	// MaxBatch caps the items in one batch (default 32).
	MaxBatch int
	// QueueCap bounds the submission queue (default 4*MaxBatch). When the
	// queue is full, Submit blocks — backpressure propagates to callers
	// instead of growing memory without bound.
	QueueCap int
	// FlushWorkers is the number of concurrent flush executors (default 2).
	// Batches form only while all of them are busy, so together with load
	// it sets how large batches grow.
	FlushWorkers int
}

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 4 * c.MaxBatch
	}
	if c.FlushWorkers <= 0 {
		c.FlushWorkers = 2
	}
	return c
}

// Batcher coalesces concurrently submitted items into batches and hands them
// to a flush function. It is work-conserving: an item never waits while a
// flush worker is idle, and items coalesce (up to MaxBatch) only while every
// worker is busy, so batch size follows load rather than a timer. The
// submission queue is bounded, so a saturated pipeline pushes back on
// submitters rather than buffering unboundedly; Close drains gracefully —
// every item accepted before Close is flushed before Close returns.
//
// The batcher never reorders items from one submitter and never inspects
// them; determinism of results is the flush function's concern (the serving
// layer guarantees it by deriving each item's randomness from the item
// alone).
type Batcher[T any] struct {
	cfg     BatcherConfig
	flush   func([]T)
	in      chan T
	batches chan []T

	mu         sync.Mutex
	closed     bool
	closeCh    chan struct{}
	submitters sync.WaitGroup
	workers    sync.WaitGroup
	closeOnce  sync.Once

	flushes atomic.Int64
}

// NewBatcher starts a batcher delivering batches to flush, which may be
// called concurrently from FlushWorkers goroutines.
func NewBatcher[T any](cfg BatcherConfig, flush func([]T)) *Batcher[T] {
	cfg = cfg.withDefaults()
	b := &Batcher[T]{
		cfg:     cfg,
		flush:   flush,
		in:      make(chan T, cfg.QueueCap),
		batches: make(chan []T), // unbuffered: a send succeeds only when a worker is idle
		closeCh: make(chan struct{}),
	}
	b.workers.Add(1)
	go b.collect()
	for w := 0; w < cfg.FlushWorkers; w++ {
		b.workers.Add(1)
		go b.worker()
	}
	return b
}

// Submit queues one item. It blocks while the queue is full (backpressure)
// until space frees, ctx is done, or the batcher closes.
func (b *Batcher[T]) Submit(ctx context.Context, item T) error {
	// The mutex gate makes close airtight: a submitter either registers in
	// the WaitGroup before closed is set (so Close waits for its send to
	// resolve before closing the channel) or observes closed and never sends.
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	b.submitters.Add(1)
	b.mu.Unlock()
	defer b.submitters.Done()
	select {
	case b.in <- item:
		return nil
	case <-b.closeCh:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close stops accepting work, flushes everything already accepted, and waits
// for all flushes to finish. Safe to call more than once.
func (b *Batcher[T]) Close() {
	b.closeOnce.Do(func() {
		b.mu.Lock()
		b.closed = true
		b.mu.Unlock()
		close(b.closeCh)    // unblocks submitters waiting on a full queue
		b.submitters.Wait() // every in-flight Submit has sent or errored
		close(b.in)         // collector drains the queue, then exits
	})
	b.workers.Wait()
}

// Depth returns the current submission-queue depth.
func (b *Batcher[T]) Depth() int { return len(b.in) }

// Flushes returns the number of batches dispatched so far.
func (b *Batcher[T]) Flushes() int64 { return b.flushes.Load() }

// collect assembles batches without ever holding one back: a pending batch
// goes to the first idle worker at once, and items join it only while every
// worker is busy. Input is not read while the batch holds MaxBatch items, so
// a saturated pipeline pushes back through the bounded queue.
func (b *Batcher[T]) collect() {
	defer b.workers.Done()
	defer close(b.batches)
	var batch []T
	in := b.in
	for in != nil || len(batch) > 0 {
		var out chan []T // nil (never ready) while there is nothing to send
		if len(batch) > 0 {
			out = b.batches
		}
		recv := in
		if len(batch) >= b.cfg.MaxBatch {
			recv = nil
		}
		select {
		case out <- batch:
			b.flushes.Add(1)
			batch = nil
		case item, ok := <-recv:
			if !ok {
				in = nil // closed and drained: send what is left, then exit
				continue
			}
			batch = append(batch, item)
		}
	}
}

func (b *Batcher[T]) worker() {
	defer b.workers.Done()
	for batch := range b.batches {
		b.flush(batch)
	}
}

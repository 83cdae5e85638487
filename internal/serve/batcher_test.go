package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectingBatcher returns a batcher whose flushes append to a shared log.
func collectingBatcher(cfg BatcherConfig) (*Batcher[int], func() [][]int) {
	var mu sync.Mutex
	var log [][]int
	b := NewBatcher(cfg, func(batch []int) {
		mu.Lock()
		log = append(log, append([]int(nil), batch...))
		mu.Unlock()
	})
	return b, func() [][]int {
		mu.Lock()
		defer mu.Unlock()
		return append([][]int(nil), log...)
	}
}

func flushedCount(log [][]int) int {
	n := 0
	for _, b := range log {
		n += len(b)
	}
	return n
}

// gatedBatcher returns a batcher whose flushes log their batch (in dispatch
// order when FlushWorkers is 1) and then block until release is called.
// release is idempotent and also runs at test cleanup, so a failing test
// cannot leave a flush — and with it Close — blocked.
func gatedBatcher(t *testing.T, cfg BatcherConfig) (b *Batcher[int], log func() [][]int, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	var mu sync.Mutex
	var batches [][]int
	b = NewBatcher(cfg, func(batch []int) {
		mu.Lock()
		batches = append(batches, append([]int(nil), batch...))
		mu.Unlock()
		<-gate
	})
	t.Cleanup(func() { release(); b.Close() })
	return b, func() [][]int {
		mu.Lock()
		defer mu.Unlock()
		return append([][]int(nil), batches...)
	}, release
}

// waitFor polls cond until it holds, failing the test after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func submitAll(t *testing.T, b *Batcher[int], items ...int) {
	t.Helper()
	for _, v := range items {
		if err := b.Submit(context.Background(), v); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatcherIdleWorkerFlushesAtOnce: with a flush worker idle, a lone item is
// dispatched on its own straight away — it never waits for company, however
// large MaxBatch is.
func TestBatcherIdleWorkerFlushesAtOnce(t *testing.T) {
	b, log := collectingBatcher(BatcherConfig{MaxBatch: 1024, FlushWorkers: 1})
	defer b.Close()
	for i := 0; i < 5; i++ {
		submitAll(t, b, i)
		waitFor(t, fmt.Sprintf("lone item %d to flush", i), func() bool { return flushedCount(log()) == i+1 })
	}
	for i, batch := range log() {
		if len(batch) != 1 || batch[0] != i {
			t.Fatalf("flush log %v, want each item alone in submission order", log())
		}
	}
	if got := b.Flushes(); got != 5 {
		t.Fatalf("Flushes() = %d, want 5", got)
	}
}

// TestBatcherCoalescesWhileWorkersBusy: items coalesce only while every flush
// worker is busy. Each of the two workers first takes a lone item; the next
// items gather into one pending batch that stops at MaxBatch (the rest stay
// queued) and is dispatched only once a worker frees.
func TestBatcherCoalescesWhileWorkersBusy(t *testing.T) {
	b, log, release := gatedBatcher(t, BatcherConfig{MaxBatch: 4, QueueCap: 64, FlushWorkers: 2})
	submitAll(t, b, 0)
	waitFor(t, "item 0 to reach a worker", func() bool { return len(log()) == 1 })
	submitAll(t, b, 1)
	waitFor(t, "item 1 to reach the second worker", func() bool { return len(log()) == 2 })
	submitAll(t, b, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)
	// The collector holds a full batch (items 2-5) and reads no further.
	waitFor(t, "the queue to settle at 6 items", func() bool { return b.Depth() == 6 })
	time.Sleep(20 * time.Millisecond)
	if got := b.Flushes(); got != 2 {
		t.Fatalf("%d batches dispatched while both workers were blocked, want 2", got)
	}
	if got := b.Depth(); got != 6 {
		t.Fatalf("queue depth %d with a full batch pending, want 6", got)
	}
	release()
	waitFor(t, "all 12 items to flush", func() bool { return flushedCount(log()) == 12 })
	got := log()
	if len(got[0]) != 1 || len(got[1]) != 1 {
		t.Fatalf("first batches %v, want lone items while a worker was idle", got[:2])
	}
	full := false
	seen := make(map[int]int)
	for _, batch := range got {
		if len(batch) > 4 {
			t.Fatalf("batch %v exceeds MaxBatch 4", batch)
		}
		if fmt.Sprint(batch) == "[2 3 4 5]" {
			full = true
		}
		for _, v := range batch {
			seen[v]++
		}
	}
	if !full {
		t.Fatalf("flush log %v lacks the coalesced batch [2 3 4 5]", got)
	}
	for v := 0; v < 12; v++ {
		if seen[v] != 1 {
			t.Fatalf("item %d flushed %d times (log %v)", v, seen[v], got)
		}
	}
}

// TestBatcherMaxBatchFlush: a batch never exceeds MaxBatch, and a full one
// leaves as soon as the worker frees, ahead of the items queued behind it.
func TestBatcherMaxBatchFlush(t *testing.T) {
	b, log, release := gatedBatcher(t, BatcherConfig{MaxBatch: 4, QueueCap: 64, FlushWorkers: 1})
	submitAll(t, b, 0)
	waitFor(t, "item 0 to reach the worker", func() bool { return len(log()) == 1 })
	submitAll(t, b, 1, 2, 3, 4, 5, 6, 7, 8)
	waitFor(t, "the queue to settle at 4 items", func() bool { return b.Depth() == 4 })
	release()
	waitFor(t, "all 9 items to flush", func() bool { return flushedCount(log()) == 9 })
	got := log()
	if fmt.Sprint(got[:2]) != "[[0] [1 2 3 4]]" {
		t.Fatalf("flush log %v, want [0] then the full batch [1 2 3 4]", got)
	}
	for _, batch := range got {
		if len(batch) > 4 {
			t.Fatalf("batch of %d exceeds MaxBatch 4", len(batch))
		}
	}
}

// TestBatcherFIFOPerSubmitter: concurrent submitters each see their items
// dispatched in submission order, whatever batches they land in.
func TestBatcherFIFOPerSubmitter(t *testing.T) {
	var mu sync.Mutex
	var order []int
	b := NewBatcher(BatcherConfig{MaxBatch: 3, QueueCap: 8, FlushWorkers: 1}, func(batch []int) {
		mu.Lock()
		order = append(order, batch...)
		mu.Unlock()
		time.Sleep(50 * time.Microsecond) // let the next items coalesce
	})
	const submitters, perS = 4, 100
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perS; i++ {
				if err := b.Submit(context.Background(), g*perS+i); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.Close()
	if len(order) != submitters*perS {
		t.Fatalf("flushed %d items, want %d", len(order), submitters*perS)
	}
	next := make([]int, submitters)
	for _, v := range order {
		g, i := v/perS, v%perS
		if i != next[g] {
			t.Fatalf("submitter %d: item %d dispatched where %d was due", g, i, next[g])
		}
		next[g]++
	}
}

// TestBatcherBackpressure: with the pipeline saturated by a blocked flush,
// Submit blocks once the bounded queue is full, honors context cancellation
// while blocked, and resumes when capacity frees.
func TestBatcherBackpressure(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	var flushed atomic.Int64
	const queueCap = 3
	b := NewBatcher(BatcherConfig{MaxBatch: 1, QueueCap: queueCap, FlushWorkers: 1},
		func(batch []int) {
			<-gate
			flushed.Add(int64(len(batch)))
		})
	// Release before closing, or a failed assertion would leave Close
	// waiting on the stalled flush forever.
	t.Cleanup(func() { release(); b.Close() })

	// Saturate: 1 in the stalled worker, 1 in the collector's hand, queueCap
	// in the queue — the pipeline holds exactly that many.
	total := 2 + queueCap
	for i := 0; i < total; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		err := b.Submit(ctx, i)
		cancel()
		if err != nil {
			t.Fatalf("submit %d within capacity failed: %v", i, err)
		}
	}

	// The queue is full: a submit with a deadline must time out.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := b.Submit(ctx, 99); err != context.DeadlineExceeded {
		t.Fatalf("submit on full queue = %v, want DeadlineExceeded", err)
	}

	// A blocked submit completes once the flush gate opens.
	done := make(chan error, 1)
	go func() { done <- b.Submit(context.Background(), 100) }()
	select {
	case err := <-done:
		t.Fatalf("submit on full queue returned early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("submit after capacity freed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("submit still blocked after flushes resumed")
	}
	b.Close()
	if got := flushed.Load(); got != int64(total+1) {
		t.Fatalf("flushed %d items, want %d", got, total+1)
	}
}

// TestBatcherGracefulDrain: Close flushes every accepted item exactly once
// before returning — including a backlog queued behind a blocked worker —
// and later submits are refused.
func TestBatcherGracefulDrain(t *testing.T) {
	b, log, release := gatedBatcher(t, BatcherConfig{MaxBatch: 8, QueueCap: 256, FlushWorkers: 1})
	const n = 100
	for i := 0; i < n; i++ {
		if err := b.Submit(context.Background(), i); err != nil {
			t.Fatal(err)
		}
	}
	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	select {
	case <-closed:
		t.Fatal("Close returned while accepted items were still queued")
	case <-time.After(20 * time.Millisecond):
	}
	release()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung draining the backlog")
	}
	seen := make(map[int]int)
	for _, batch := range log() {
		for _, v := range batch {
			seen[v]++
		}
	}
	if len(seen) != n {
		t.Fatalf("drained %d distinct items, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("item %d flushed %d times", v, c)
		}
	}
	if err := b.Submit(context.Background(), 1); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestBatcherDrainUnderCancellation: Close racing concurrent submitters
// (some with canceling contexts) must flush exactly the accepted items —
// no losses, no duplicates, no hangs. Run with -race.
func TestBatcherDrainUnderCancellation(t *testing.T) {
	var flushedMu sync.Mutex
	flushed := make(map[int]int)
	b := NewBatcher(BatcherConfig{MaxBatch: 4, QueueCap: 8},
		func(batch []int) {
			time.Sleep(100 * time.Microsecond) // keep the pipeline busy
			flushedMu.Lock()
			for _, v := range batch {
				flushed[v]++
			}
			flushedMu.Unlock()
		})
	var accepted sync.Map
	var wg sync.WaitGroup
	const goroutines, perG = 8, 50
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				id := g*perG + i
				ctx := context.Background()
				if i%7 == 3 { // some submitters give up quickly
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 200*time.Microsecond)
					defer cancel()
				}
				if err := b.Submit(ctx, id); err == nil {
					accepted.Store(id, true)
				}
			}
		}(g)
	}
	// Close midway through the submission storm.
	time.Sleep(2 * time.Millisecond)
	b.Close()
	wg.Wait()

	flushedMu.Lock()
	defer flushedMu.Unlock()
	accepted.Range(func(k, _ any) bool {
		if flushed[k.(int)] != 1 {
			t.Errorf("accepted item %d flushed %d times", k.(int), flushed[k.(int)])
		}
		return true
	})
	for id, c := range flushed {
		if _, ok := accepted.Load(id); !ok {
			t.Errorf("item %d flushed but never accepted", id)
		}
		if c != 1 {
			t.Errorf("item %d flushed %d times", id, c)
		}
	}
}

// TestBatcherCloseDuringConcurrentSubmit: Close racing submitters blocked on
// a FULL queue — the hardest interleaving: every accepted item flushes
// exactly once, every blocked submitter returns promptly (nil or ErrClosed,
// nothing else, no hang). Run with -race.
func TestBatcherCloseDuringConcurrentSubmit(t *testing.T) {
	var flushedMu sync.Mutex
	flushed := make(map[int]int)
	gate := make(chan struct{})
	b := NewBatcher(BatcherConfig{MaxBatch: 2, QueueCap: 2, FlushWorkers: 1},
		func(batch []int) {
			<-gate // stall the pipeline so the queue fills and submitters block
			flushedMu.Lock()
			for _, v := range batch {
				flushed[v]++
			}
			flushedMu.Unlock()
		})

	var accepted sync.Map
	var wg sync.WaitGroup
	const submitters = 16
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			err := b.Submit(context.Background(), id)
			switch err {
			case nil:
				accepted.Store(id, true)
			case ErrClosed:
			default:
				t.Errorf("submit %d: %v", id, err)
			}
		}(g)
	}
	time.Sleep(5 * time.Millisecond) // queue full, most submitters blocked
	closeDone := make(chan struct{})
	go func() { b.Close(); close(closeDone) }()
	time.Sleep(time.Millisecond)
	close(gate) // release the stalled flush; drain can proceed
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung with submitters blocked on a full queue")
	}
	wg.Wait()

	if err := b.Submit(context.Background(), 999); err != ErrClosed {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	flushedMu.Lock()
	defer flushedMu.Unlock()
	accepted.Range(func(k, _ any) bool {
		if flushed[k.(int)] != 1 {
			t.Errorf("accepted item %d flushed %d times", k.(int), flushed[k.(int)])
		}
		return true
	})
	for id, c := range flushed {
		if _, ok := accepted.Load(id); !ok || c != 1 {
			t.Errorf("item %d: flushed %d times, accepted=%v", id, c, ok)
		}
	}
}

package nn

import (
	"sync"
	"sync/atomic"
)

// pool is a persistent data-parallel worker pool for the training and
// evaluation loops. It reuses the inference engine's work-stealing counter
// idiom (workers claim task indices off a shared atomic counter, so no
// worker idles behind a static partition), but keeps its goroutines alive
// across rounds: one SGD epoch dispatches hundreds of minibatches, and
// respawning a fan-out per batch — what nn.Train and nn.TrainMLP used to do —
// costs more than the work a small shard contains.
//
// Determinism note: the pool hands out task indices, not data. Training
// binds task index w to shard w's gradient buffers, so which goroutine runs
// a task never affects where its results accumulate, and the fixed-order
// shard reduction stays bit-reproducible for a given worker count. The
// update round binds task t to core t, whose elements no other task
// touches.
type pool struct {
	nw    int
	tasks int
	body  func(task int)
	next  atomic.Int64
	wake  chan struct{}
	wg    sync.WaitGroup
}

// newPool starts a pool of nw goroutines (nw must be positive). A pool with
// nw == 1 spawns nothing and runs rounds inline on the caller's goroutine.
func newPool(nw int) *pool {
	p := &pool{nw: nw}
	if nw == 1 {
		return p
	}
	p.wake = make(chan struct{}, nw)
	for w := 0; w < nw; w++ {
		go p.loop()
	}
	return p
}

func (p *pool) loop() {
	for range p.wake {
		for {
			t := int(p.next.Add(1)) - 1
			if t >= p.tasks {
				break
			}
			p.body(t)
		}
		p.wg.Done()
	}
}

// run executes body(t) for every t in [0, n) across the pool and returns
// once all calls completed. Rounds are serial: run must not be called
// concurrently with itself.
func (p *pool) run(n int, body func(task int)) {
	if n <= 0 {
		return
	}
	if p.nw == 1 {
		for t := 0; t < n; t++ {
			body(t)
		}
		return
	}
	p.tasks, p.body = n, body
	p.next.Store(0)
	p.wg.Add(p.nw)
	for w := 0; w < p.nw; w++ {
		p.wake <- struct{}{}
	}
	p.wg.Wait()
	p.body = nil
}

// close releases the pool's goroutines. The pool must not be used after.
func (p *pool) close() {
	if p.wake != nil {
		close(p.wake)
	}
}

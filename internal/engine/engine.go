// Package engine is the unified batched inference engine of the repository:
// every parallel evaluation fan-out — the Monte-Carlo deployment surfaces of
// the paper's Figure 7, ablation accuracy sweeps, and cycle-accurate chip
// runs — routes through the worker pool implemented here.
//
// The engine owns three concerns its callers used to hand-roll:
//
//   - work-stealing fan-out: a bounded worker pool drains items off a shared
//     atomic counter, so heterogeneous items (e.g. cycle-accurate chip
//     frames of different depth) never leave fast workers idle behind a
//     static partition;
//   - deterministic randomness: every item receives a private rng.PCG32
//     stream, split from the caller's root by item index into one contiguous
//     arena before the fan-out starts, so results are bit-identical
//     regardless of worker count or goroutine scheduling;
//   - scratch reuse: per-worker mutable state (spike buffers, count grids,
//     whole simulated chips) is created once per worker and, for the
//     Predictor-level APIs, recycled across batches through a sync.Pool.
//
// Execution paths plug in through the Predictor interface: the bit-parallel
// fast path (deploy.FastPredictor over a SampledNet) and the cycle-accurate
// chip path (deploy.ChipPredictor over truenorth.Chip) are the two current
// implementations, and any future backend that can classify one frame behind
// this contract inherits batching, determinism and cancellation for free.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// Scratch is opaque per-worker mutable state owned by a Predictor
// implementation (spike buffers for the fast path, a private simulated chip
// for the chip path). The engine never inspects it; it only guarantees that a
// Scratch is used by one worker at a time.
type Scratch = any

// Predictor is the per-frame inference contract both execution paths
// implement. Implementations must be safe for concurrent use as long as each
// goroutine works on its own Scratch.
type Predictor interface {
	// Classes returns the readout width (length of every counts slice).
	Classes() int
	// NewScratch allocates the per-worker state Frame needs.
	NewScratch() Scratch
	// Frame classifies input x with spf temporal samples, accumulating
	// final-layer class spike counts into counts (length Classes). src drives
	// every stochastic draw of the frame.
	Frame(s Scratch, x []float64, spf int, src rng.Source, counts []int64)
	// Decide converts accumulated class spike counts into a prediction.
	Decide(counts []int64) int
}

// TickPredictor is implemented by predictors that can expose one temporal
// sample at a time — the EncodeAndTick contract Grid needs to price a whole
// (copies x spf) accuracy surface in a single pass per image.
type TickPredictor interface {
	Predictor
	// EncodeAndTick encodes tick (0-based) of an spf-tick frame of x and
	// advances the network one tick, accumulating emitted class spikes into
	// counts.
	EncodeAndTick(s Scratch, x []float64, tick, spf int, src rng.Source, counts []int64)
}

// EnsemblePredictor is implemented by predictors whose vote is an ensemble of
// independently sampled copies, each evaluable on its own. It is the contract
// behind the wave-scheduled, confidence-gated path of ClassifyItems: copies
// are evaluated one at a time so the scheduler can stop charging the budget
// once the class vote is decided.
type EnsemblePredictor interface {
	Predictor
	// Copies returns the ensemble's full vote budget.
	Copies() int
	// FrameCopy classifies x on copy k alone, accumulating the copy's class
	// spike counts into counts. src drives every stochastic draw of the
	// copy's frame; implementations must not draw from any other source, so
	// a copy's votes depend only on (copy identity, x, spf, src).
	FrameCopy(s Scratch, k int, x []float64, spf int, src rng.Source, counts []int64)
	// ClassWeights returns the per-class vote normalization (readout neurons
	// merged into each class) that Decide divides by. Read-only.
	ClassWeights() []int
}

// Config bounds a batched run.
type Config struct {
	// Workers caps pool size (0 = GOMAXPROCS).
	Workers int
	// Wave is the ensemble wave size of the confidence-gated path: copies
	// evaluated between early-exit checks (0 = DefaultWave). Wave size only
	// trades gate overhead against exit granularity; it never changes any
	// copy's random draws.
	Wave int
	// Ctx optionally cancels the run early (nil = never). Cancellation is
	// checked between items; a canceled run returns ctx.Err() and its partial
	// results must be discarded.
	Ctx context.Context
}

func (c Config) workerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) context() context.Context {
	if c.Ctx != nil {
		return c.Ctx
	}
	return context.Background()
}

// SeedFunc derives item i's private stream into dst. The engine calls it
// serially in increasing item order before the fan-out starts, so
// implementations may advance shared state (e.g. PCG32.SplitInto, which
// steps the root generator) and still produce scheduling-independent
// streams.
type SeedFunc func(item int, dst *rng.PCG32)

// Run is the engine's fan-out primitive: it executes body(state, i, src) for
// every item i in [0, n), where state is worker-local (created by newState
// once per worker) and src is the item's private stream. Streams are derived
// serially from root by item index into one contiguous backing arena before
// any goroutine starts, so a body that draws randomness only from src
// produces scheduling-independent results even though workers claim items
// dynamically off a shared atomic counter (no worker idles while another
// still holds a backlog of expensive items). After a worker drains the
// counter, merge(state) runs under the engine's lock (pass nil when no
// reduction is needed); merges must be order-insensitive, as completion
// order depends on scheduling.
func Run[S any](cfg Config, n int, root *rng.PCG32, newState func() S, body func(state S, item int, src *rng.PCG32), merge func(S)) error {
	return RunSeeded(cfg, n, func(i int, dst *rng.PCG32) { root.SplitInto(dst, uint64(i)) }, newState, body, merge)
}

// RunSeeded is Run with caller-controlled per-item streams: seed(i, dst)
// derives item i's generator instead of the single-root Split(i) derivation.
// This is the contract heterogeneous batches need — e.g. a serving batch that
// coalesces requests carrying their own seeds — because each item's stream
// depends only on the item itself, never on which other items share the
// batch, a worker schedule, or a base seed. Everything else matches Run:
// streams are derived serially into one arena before the fan-out, workers
// claim items off a shared atomic counter, and merge runs once per worker
// under the engine's lock.
func RunSeeded[S any](cfg Config, n int, seed SeedFunc, newState func() S, body func(state S, item int, src *rng.PCG32), merge func(S)) error {
	if n <= 0 {
		return nil
	}
	ctx := cfg.context()
	arena := make([]rng.PCG32, n)
	for i := range arena {
		seed(i, &arena[i])
	}
	workers := min(cfg.workerCount(), n)
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				body(state, i, &arena[i])
			}
			if merge != nil {
				mu.Lock()
				merge(state)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Engine binds a Predictor to a worker pool and a scratch pool for repeated
// batched inference. Scratches are recycled across calls, so a long-lived
// Engine amortizes per-worker allocation (frame buffers, simulated chips)
// over its whole lifetime.
type Engine struct {
	p       Predictor
	cfg     Config
	scratch sync.Pool
}

// New returns an Engine serving p under cfg.
func New(p Predictor, cfg Config) *Engine {
	e := &Engine{p: p, cfg: cfg}
	e.scratch.New = func() any { return p.NewScratch() }
	return e
}

// Classify returns the predicted class of every input, using spf temporal
// samples per frame (spf >= 1). Item i draws all randomness from
// root.Split(i), so predictions are deterministic given root and independent
// of worker count.
func (e *Engine) Classify(inputs [][]float64, spf int, root *rng.PCG32) ([]int, error) {
	if spf < 1 {
		return nil, fmt.Errorf("engine: spf %d < 1", spf)
	}
	out := make([]int, len(inputs))
	type state struct {
		scratch Scratch
		counts  []int64
	}
	err := Run(e.cfg, len(inputs), root,
		func() *state {
			return &state{scratch: e.scratch.Get(), counts: make([]int64, e.p.Classes())}
		},
		func(s *state, i int, src *rng.PCG32) {
			for k := range s.counts {
				s.counts[k] = 0
			}
			e.p.Frame(s.scratch, inputs[i], spf, src, s.counts)
			out[i] = e.p.Decide(s.counts)
		},
		func(s *state) { e.scratch.Put(s.scratch) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Item is one request of a heterogeneous batch: its own input, its own
// temporal depth, and its own stream derivation. Batches of Items are how a
// serving layer coalesces unrelated concurrent requests into one engine
// fan-out without entangling their randomness.
type Item struct {
	// X is the input vector.
	X []float64
	// SPF is the number of temporal samples for this item (>= 1).
	SPF int
	// Seed derives the item's private stream; it is called serially in item
	// order before the fan-out starts and must depend only on the item (not
	// on shared mutable state), so the result is independent of how items
	// were grouped into batches.
	Seed func(dst *rng.PCG32)
	// Copies is the ensemble vote budget. 0 or 1 keeps the single-evaluation
	// Frame path bit-identical to an Item without the field; > 1 routes the
	// item through the wave scheduler and requires an EnsemblePredictor.
	Copies int
	// Conf is the early-exit confidence threshold in [0,1] for ensemble
	// items. 0 (the default) is exact: every copy in the budget votes and
	// counts are bit-identical to summing all copies. Conf > 0 permits the
	// wave scheduler to stop early once the leading class is unassailable
	// (exactly, or statistically at confidence Conf); Conf has no effect
	// when Copies <= 1.
	Conf float64
}

// Outcome couples one item's decided class with the class spike counts that
// produced it.
type Outcome struct {
	Class  int
	Counts []int64
	// CopiesUsed is how many ensemble copies actually voted: the full budget
	// unless the confidence gate exited early; 1 on the single-copy path.
	CopiesUsed int
}

// ClassifyItems classifies a heterogeneous batch: item i uses its own spf and
// draws all randomness from its own stream. Because every stream is derived
// from the item alone, outcomes are bit-identical to classifying each item in
// its own single-item batch — coalescing is invisible to results. Items with
// Copies > 1 take the ensemble wave path (see WaveState.ClassifyWaves) and
// require the engine's predictor to implement EnsemblePredictor; exact and
// approximate items may share a batch freely, since neither's stream or
// scratch leaks into the other.
func (e *Engine) ClassifyItems(items []Item) ([]Outcome, error) {
	ep, _ := e.p.(EnsemblePredictor)
	needWaves := false
	for i := range items {
		if items[i].SPF < 1 {
			return nil, fmt.Errorf("engine: item %d spf %d < 1", i, items[i].SPF)
		}
		if items[i].Copies > 1 {
			if ep == nil {
				return nil, fmt.Errorf("engine: item %d requests %d ensemble copies but predictor %T cannot evaluate per-copy", i, items[i].Copies, e.p)
			}
			needWaves = true
		}
	}
	out := make([]Outcome, len(items))
	type state struct {
		scratch Scratch
		waves   *WaveState
	}
	err := RunSeeded(e.cfg, len(items),
		func(i int, dst *rng.PCG32) { items[i].Seed(dst) },
		func() *state {
			s := &state{scratch: e.scratch.Get()}
			if needWaves {
				s.waves = NewWaveState(ep)
			}
			return s
		},
		func(s *state, i int, src *rng.PCG32) {
			counts := make([]int64, e.p.Classes())
			it := &items[i]
			if it.Copies > 1 {
				used := s.waves.ClassifyWaves(ep, s.scratch, it.X, it.SPF, it.Copies, it.Conf, e.cfg.Wave, src, counts)
				out[i] = Outcome{Class: e.p.Decide(counts), Counts: counts, CopiesUsed: used}
				return
			}
			e.p.Frame(s.scratch, it.X, it.SPF, src, counts)
			out[i] = Outcome{Class: e.p.Decide(counts), Counts: counts, CopiesUsed: 1}
		},
		func(s *state) { e.scratch.Put(s.scratch) })
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Accuracy classifies every input and returns the fraction matching labels.
func (e *Engine) Accuracy(inputs [][]float64, labels []int, spf int, root *rng.PCG32) (float64, error) {
	if len(inputs) == 0 {
		return 0, nil
	}
	if len(inputs) != len(labels) {
		return 0, fmt.Errorf("engine: %d inputs vs %d labels", len(inputs), len(labels))
	}
	preds, err := e.Classify(inputs, spf, root)
	if err != nil {
		return 0, err
	}
	correct := 0
	for i, p := range preds {
		if p == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(inputs)), nil
}

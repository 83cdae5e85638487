package engine

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

// toyPredictor is a deterministic-by-stream test predictor: each temporal
// sample votes for class (x[0]*scale + one stream draw) mod classes.
type toyPredictor struct {
	classes    int
	scratchNew atomic.Int64
}

type toyScratch struct{ buf []int64 }

func (p *toyPredictor) Classes() int { return p.classes }

func (p *toyPredictor) NewScratch() Scratch {
	p.scratchNew.Add(1)
	return &toyScratch{buf: make([]int64, p.classes)}
}

func (p *toyPredictor) EncodeAndTick(s Scratch, x []float64, tick, spf int, src rng.Source, counts []int64) {
	draw := int(src.Uint32() % 7)
	k := (int(x[0]) + draw + tick) % p.classes
	counts[k]++
}

func (p *toyPredictor) Frame(s Scratch, x []float64, spf int, src rng.Source, counts []int64) {
	for t := 0; t < spf; t++ {
		p.EncodeAndTick(s, x, t, spf, src, counts)
	}
}

func (p *toyPredictor) Decide(counts []int64) int {
	best, bi := int64(-1), 0
	for k, v := range counts {
		if v > best {
			best, bi = v, k
		}
	}
	return bi
}

func toyInputs(n int) [][]float64 {
	inputs := make([][]float64, n)
	for i := range inputs {
		inputs[i] = []float64{float64(i % 5)}
	}
	return inputs
}

func TestClassifyDeterministicAcrossWorkerCounts(t *testing.T) {
	inputs := toyInputs(103)
	var ref []int
	for _, workers := range []int{1, 2, 7, 16} {
		e := New(&toyPredictor{classes: 4}, Config{Workers: workers})
		got, err := e.Classify(inputs, 3, rng.NewPCG32(9, 9))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(inputs) {
			t.Fatalf("%d predictions for %d inputs", len(got), len(inputs))
		}
		if ref == nil {
			ref = got
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d item %d: %d vs %d", workers, i, got[i], ref[i])
			}
		}
	}
}

func TestClassifyMatchesSerialReference(t *testing.T) {
	// The engine contract: item i draws from root.Split(i), streams derived
	// serially by index. A hand-rolled loop with the same derivation must
	// agree exactly.
	inputs := toyInputs(31)
	p := &toyPredictor{classes: 3}
	root := rng.NewPCG32(4, 4)
	streams := make([]*rng.PCG32, len(inputs))
	for i := range streams {
		streams[i] = root.Split(uint64(i))
	}
	want := make([]int, len(inputs))
	counts := make([]int64, 3)
	s := p.NewScratch()
	for i := range inputs {
		for k := range counts {
			counts[k] = 0
		}
		p.Frame(s, inputs[i], 2, streams[i], counts)
		want[i] = p.Decide(counts)
	}
	e := New(&toyPredictor{classes: 3}, Config{Workers: 5})
	got, err := e.Classify(inputs, 2, rng.NewPCG32(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("item %d: engine %d vs serial %d", i, got[i], want[i])
		}
	}
}

func TestAccuracyCountsMatches(t *testing.T) {
	inputs := toyInputs(50)
	e := New(&toyPredictor{classes: 4}, Config{Workers: 3})
	preds, err := e.Classify(inputs, 2, rng.NewPCG32(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, len(inputs))
	for i := range labels {
		labels[i] = preds[i]
	}
	// Flip some labels: accuracy must drop by exactly the flipped fraction.
	for i := 0; i < 10; i++ {
		labels[i] = (labels[i] + 1) % 4
	}
	acc, err := e.Accuracy(inputs, labels, 2, rng.NewPCG32(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if acc != 0.8 {
		t.Fatalf("accuracy %v, want 0.8", acc)
	}
}

func TestAccuracyValidation(t *testing.T) {
	e := New(&toyPredictor{classes: 2}, Config{})
	if acc, err := e.Accuracy(nil, nil, 1, rng.NewPCG32(1, 1)); err != nil || acc != 0 {
		t.Fatalf("empty accuracy = %v, %v", acc, err)
	}
	if _, err := e.Accuracy(toyInputs(3), make([]int, 2), 1, rng.NewPCG32(1, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// A frame of no temporal samples decides from empty counts; reject it.
	for _, spf := range []int{0, -3} {
		if _, err := e.Accuracy(toyInputs(3), make([]int, 3), spf, rng.NewPCG32(1, 1)); err == nil {
			t.Fatalf("Accuracy accepted spf %d", spf)
		}
		if _, err := e.Classify(toyInputs(3), spf, rng.NewPCG32(1, 1)); err == nil {
			t.Fatalf("Classify accepted spf %d", spf)
		}
	}
}

func TestScratchReusePerWorkerNotPerItem(t *testing.T) {
	p := &toyPredictor{classes: 2}
	e := New(p, Config{Workers: 4})
	inputs := toyInputs(500)
	for run := 0; run < 3; run++ {
		if _, err := e.Classify(inputs, 1, rng.NewPCG32(uint64(run), 1)); err != nil {
			t.Fatal(err)
		}
	}
	// Scratches are per worker (and pooled across runs), never per item:
	// 3 runs x 4 workers bounds allocations at 12 even if the pool drops
	// everything between runs.
	if got := p.scratchNew.Load(); got > 12 {
		t.Fatalf("%d scratch allocations for 1500 items on 4 workers", got)
	}
}

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e := New(&toyPredictor{classes: 2}, Config{Workers: 2, Ctx: ctx})
	if _, err := e.Classify(toyInputs(100), 1, rng.NewPCG32(1, 1)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	err := Run(Config{Ctx: ctx}, 10, rng.NewPCG32(1, 1),
		func() int { return 0 }, func(int, int, *rng.PCG32) {}, nil)
	if err != context.Canceled {
		t.Fatalf("Run err = %v", err)
	}
}

func TestRunEmptyAndNilMerge(t *testing.T) {
	if err := Run(Config{}, 0, rng.NewPCG32(1, 1), func() int { return 0 },
		func(int, int, *rng.PCG32) { t.Fatal("body called for n=0") }, nil); err != nil {
		t.Fatal(err)
	}
	var visited atomic.Int64
	err := Run(Config{Workers: 3}, 17, rng.NewPCG32(1, 1),
		func() int { return 0 },
		func(_ int, i int, src *rng.PCG32) {
			if src == nil {
				t.Error("nil stream")
			}
			visited.Add(1)
		}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if visited.Load() != 17 {
		t.Fatalf("visited %d items, want 17", visited.Load())
	}
}

func TestGridMatchesBruteForce(t *testing.T) {
	// Grid's inclusion-exclusion prefix must equal the brute-force
	// re-evaluation of every (copies, spf) cell with shared per-item streams.
	const copies, maxSPF, classes, n = 3, 4, 3, 29
	ps := make([]TickPredictor, copies)
	for c := range ps {
		ps[c] = &toyPredictor{classes: classes}
	}
	inputs := toyInputs(n)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i % classes
	}
	got, err := Grid(ps, inputs, labels, maxSPF, rng.NewPCG32(8, 8), Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Brute force: replay the exact stream consumption (copy-major,
	// tick-inner) per item, accumulate counts cumulatively, and re-decide
	// each cell.
	root := rng.NewPCG32(8, 8)
	streams := make([]*rng.PCG32, n)
	for i := range streams {
		streams[i] = root.Split(uint64(i))
	}
	want := make([][]int64, copies)
	for c := range want {
		want[c] = make([]int64, maxSPF)
	}
	counts := make([][][]int64, copies)
	for c := range counts {
		counts[c] = make([][]int64, maxSPF)
		for s := range counts[c] {
			counts[c][s] = make([]int64, classes)
		}
	}
	for i := 0; i < n; i++ {
		src := streams[i]
		for c := 0; c < copies; c++ {
			for s := 0; s < maxSPF; s++ {
				for k := range counts[c][s] {
					counts[c][s][k] = 0
				}
				ps[c].EncodeAndTick(nil, inputs[i], s, maxSPF, src, counts[c][s])
			}
		}
		for c := 0; c < copies; c++ {
			for s := 0; s < maxSPF; s++ {
				sum := make([]int64, classes)
				for cc := 0; cc <= c; cc++ {
					for ss := 0; ss <= s; ss++ {
						for k := 0; k < classes; k++ {
							sum[k] += counts[cc][ss][k]
						}
					}
				}
				if ps[0].Decide(sum) == labels[i] {
					want[c][s]++
				}
			}
		}
	}
	for c := 0; c < copies; c++ {
		for s := 0; s < maxSPF; s++ {
			if got[c][s] != want[c][s] {
				t.Fatalf("cell (%d,%d): grid %d vs brute force %d", c, s, got[c][s], want[c][s])
			}
		}
	}
}

func TestGridValidation(t *testing.T) {
	if _, err := Grid(nil, nil, nil, 1, rng.NewPCG32(1, 1), Config{}); err == nil {
		t.Fatal("empty predictor set accepted")
	}
	ps := []TickPredictor{&toyPredictor{classes: 2}, &toyPredictor{classes: 3}}
	if _, err := Grid(ps, toyInputs(2), make([]int, 2), 1, rng.NewPCG32(1, 1), Config{}); err == nil {
		t.Fatal("mismatched class widths accepted")
	}
	one := []TickPredictor{&toyPredictor{classes: 2}}
	if _, err := Grid(one, toyInputs(2), make([]int, 3), 1, rng.NewPCG32(1, 1), Config{}); err == nil {
		t.Fatal("input/label length mismatch accepted")
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Fatalf("empty MeanStd = %v, %v", mean, std)
	}
	mean, std = MeanStd([]float64{0.5, 0.5, 0.5})
	if mean != 0.5 || std != 0 {
		t.Fatalf("constant MeanStd = %v, %v (variance must clamp to 0)", mean, std)
	}
	mean, std = MeanStd([]float64{1, 3})
	if mean != 2 || std != 1 {
		t.Fatalf("MeanStd([1,3]) = %v, %v, want 2, 1", mean, std)
	}
}

func TestNewGrid(t *testing.T) {
	g := NewGrid(2, 3)
	if len(g) != 2 || len(g[0]) != 3 || len(g[1]) != 3 {
		t.Fatalf("grid shape %v", g)
	}
}

// TestRunWorkStealingCoversAllItemsOnce: under the dynamic counter, every
// item must execute exactly once for any worker count, including workers > n
// and pathologically skewed per-item costs.
func TestRunWorkStealingCoversAllItemsOnce(t *testing.T) {
	for _, workers := range []int{1, 3, 8, 64} {
		const n = 37
		var hits [n]atomic.Int64
		err := Run(Config{Workers: workers}, n, rng.NewPCG32(1, 1),
			func() int { return 0 },
			func(_ int, i int, src *rng.PCG32) {
				if src == nil {
					t.Error("nil stream")
				}
				hits[i].Add(1)
				if i%9 == 0 {
					time.Sleep(time.Millisecond) // skewed item cost
				}
			}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", workers, i, got)
			}
		}
	}
}

// TestRunStreamsMatchSerialSplit: the arena streams handed to body must be
// exactly root.Split(i) regardless of which worker claims item i.
func TestRunStreamsMatchSerialSplit(t *testing.T) {
	const n = 50
	ref := rng.NewPCG32(5, 5)
	want := make([]uint32, n)
	for i := range want {
		want[i] = ref.Split(uint64(i)).Uint32()
	}
	got := make([]uint32, n)
	err := Run(Config{Workers: 7}, n, rng.NewPCG32(5, 5),
		func() int { return 0 },
		func(_ int, i int, src *rng.PCG32) { got[i] = src.Uint32() }, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d drew %d, serial split reference %d", i, got[i], want[i])
		}
	}
}

// TestRunSeededDerivationOrder: seed fns run serially in item order before
// the fan-out, so a derivation that mutates shared state (like SplitInto)
// still yields deterministic streams under any worker count.
func TestRunSeededDerivationOrder(t *testing.T) {
	const n = 40
	for _, workers := range []int{1, 6} {
		calls := make([]int, 0, n)
		root := rng.NewPCG32(3, 3)
		got := make([]uint32, n)
		err := RunSeeded(Config{Workers: workers}, n,
			func(i int, dst *rng.PCG32) {
				calls = append(calls, i) // serial: no lock needed
				root.SplitInto(dst, uint64(i))
			},
			func() int { return 0 },
			func(_ int, i int, src *rng.PCG32) { got[i] = src.Uint32() }, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range calls {
			if c != i {
				t.Fatalf("workers=%d: seed call %d was for item %d", workers, i, c)
			}
		}
		ref := rng.NewPCG32(3, 3)
		for i := range got {
			if want := ref.Split(uint64(i)).Uint32(); got[i] != want {
				t.Fatalf("workers=%d item %d drew %d, want %d", workers, i, got[i], want)
			}
		}
	}
}

// TestClassifyItemsMatchesSingleItemBatches: coalescing heterogeneous items
// (distinct seeds, distinct spf) into one batch must be bit-identical to
// classifying each item alone, for any worker count — the determinism
// contract a serving micro-batcher builds on.
func TestClassifyItemsMatchesSingleItemBatches(t *testing.T) {
	const n = 43
	items := make([]Item, n)
	for i := range items {
		seed, spf := uint64(1000+i), 1+i%4
		items[i] = Item{
			X:    []float64{float64(i % 5)},
			SPF:  spf,
			Seed: func(dst *rng.PCG32) { dst.Seed(seed, 7) },
		}
	}
	solo := New(&toyPredictor{classes: 4}, Config{Workers: 1})
	want := make([]Outcome, n)
	for i := range items {
		out, err := solo.ClassifyItems(items[i : i+1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out[0]
	}
	for _, workers := range []int{1, 4, 16} {
		e := New(&toyPredictor{classes: 4}, Config{Workers: workers})
		got, err := e.ClassifyItems(items)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i].Class != want[i].Class {
				t.Fatalf("workers=%d item %d: class %d vs solo %d", workers, i, got[i].Class, want[i].Class)
			}
			for k := range got[i].Counts {
				if got[i].Counts[k] != want[i].Counts[k] {
					t.Fatalf("workers=%d item %d class %d: count %d vs solo %d",
						workers, i, k, got[i].Counts[k], want[i].Counts[k])
				}
			}
		}
	}
}

// TestClassifyItemsEmptyAndCancel: empty batches are a no-op, an item with
// spf < 1 is rejected, and a canceled context surfaces as the context error.
func TestClassifyItemsEmptyAndCancel(t *testing.T) {
	e := New(&toyPredictor{classes: 2}, Config{})
	out, err := e.ClassifyItems(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch = %v, %v", out, err)
	}
	seed1 := func(dst *rng.PCG32) { dst.Seed(1, 1) }
	for _, spf := range []int{0, -3} {
		bad := []Item{{X: []float64{0}, SPF: 1, Seed: seed1}, {X: []float64{0}, SPF: spf, Seed: seed1}}
		if _, err := e.ClassifyItems(bad); err == nil {
			t.Fatalf("ClassifyItems accepted spf %d", spf)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ec := New(&toyPredictor{classes: 2}, Config{Workers: 2, Ctx: ctx})
	items := make([]Item, 20)
	for i := range items {
		seed := uint64(i)
		items[i] = Item{X: []float64{0}, SPF: 1, Seed: func(dst *rng.PCG32) { dst.Seed(seed, 1) }}
	}
	if _, err := ec.ClassifyItems(items); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

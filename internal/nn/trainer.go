package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs   int
	Batch    int
	LR       float64
	Momentum float64
	// LRDecay multiplies the learning rate after every epoch (1 = constant).
	LRDecay float64
	// Lambda is the regularization coefficient of Eq. (16).
	Lambda  float64
	Penalty Penalty
	// Warmup delays the penalty: Lambda is applied only from epoch Warmup
	// onwards, letting the task structure form before probabilities are
	// polarized. The paper does not document its schedule; this is our
	// training-schedule choice (docs/ARCHITECTURE.md "Design choices") and Warmup=0 recovers
	// penalty-from-the-start behaviour.
	Warmup int
	Seed   uint64
	// Workers bounds data-parallel goroutines; 0 means GOMAXPROCS.
	Workers int
	// Progress, when non-nil, receives per-epoch telemetry.
	Progress func(epoch int, trainLoss, trainAcc float64)
}

func (c *TrainConfig) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// trainShard owns one gradient-reduction slot of the data-parallel fan-out.
// Task index w of every batch round is bound to shard w, so gradients, loss
// and accuracy always accumulate in the same place no matter which pool
// goroutine claims the task, and the batch reduction can run in fixed shard
// order. Keeping the loss/correct accumulators inside the (separately
// heap-allocated) shard struct — instead of the adjacent per-worker
// `losses []float64` / `corrects []int` slices the old loop allocated every
// batch — removes both the per-batch allocation churn and the false sharing
// of neighbouring counter slots.
type trainShard struct {
	g       *netGrads
	bs      *batchScratch
	loss    float64
	correct int
}

// minShardSamples bounds how finely a minibatch is split: below this size a
// shard's fixed costs (an extra gradient-reduction slot, panel setup, one
// kernel call per core) outweigh its compute, so small batches use fewer
// shards than workers. Note this coarsening changes the cross-shard
// gradient-summation grouping relative to the pre-batching trainer's plain
// ceil(batch/workers) split when that split would go below 8 samples, so
// multi-worker runs are not ULP-comparable across that boundary (results
// were always worker-count-dependent); single-worker runs are unchanged.
const minShardSamples = 8

// shardChunk returns the per-shard sample count used to split a batch of n
// samples across nw workers. Shard partition is a pure function of (n, nw),
// never of scheduling — the deterministic-reduction contract depends on it.
func shardChunk(n, nw int) int {
	chunk := (n + nw - 1) / nw
	if chunk < minShardSamples {
		chunk = min(minShardSamples, n)
	}
	return chunk
}

// run processes the shard's samples: one batched forward, per-sample readout
// loss gradients, one batched backward. Gradients for the shard end up in
// sh.g exactly as the sample-at-a-time loop produced them (the backward
// kernels overwrite, so no pre-zeroing pass is needed).
func (sh *trainShard) run(n *Network, inputs [][]float64, labels []int, idx []int) {
	bs := sh.bs
	n.forwardBatch(bs, inputs, idx)
	b := len(idx)
	sh.correct = n.scoreBatch(bs, labels, idx)
	dAct := rows(bs.dAct[len(n.Layers)], b)
	loss := 0.0
	for s := 0; s < b; s++ {
		loss += n.Readout.LossGrad(bs.scores.Row(s), bs.probs.Row(s), labels[idx[s]], dAct.Row(s))
	}
	sh.loss = loss
	n.backwardBatch(bs, sh.g, b)
}

// Train runs minibatch SGD with momentum on net over train. Feature vectors
// shorter than the input layer (grid padding) are zero-extended; a wider one
// is an error. Returns the final epoch's mean training loss.
//
// The hot loop is batched: each worker shard flows through the tensor
// package's minibatch GEMM/spike kernels, a persistent work-stealing pool
// replaces the per-batch goroutine fan-out, and per-shard gradients merge in
// fixed ascending shard order. The deterministic-reduction contract: the
// shard partition is a pure function of (batch, Workers) via shardChunk, so
// for a given (net, dataset, config) — including Workers — training is
// bit-reproducible, and it is bit-identical to the per-sample reference
// path run under that same partition and merge order (pinned by
// batch_test.go). As before the batching, changing Workers regroups the
// gradient summation and may change results in the last ulp.
func Train(net *Network, train *dataset.Dataset, cfg TrainConfig) (float64, error) {
	if err := net.Validate(); err != nil {
		return 0, fmt.Errorf("nn: train: %w", err)
	}
	if err := validateSGD(cfg.Batch, cfg.Epochs, cfg.LR, cfg.Momentum, cfg.LRDecay, cfg.Lambda); err != nil {
		return 0, fmt.Errorf("nn: train: %w", err)
	}
	if train.Len() == 0 {
		return 0, fmt.Errorf("nn: train: empty dataset")
	}
	inputs, err := PadInputs(net, train, train.Len())
	if err != nil {
		return 0, fmt.Errorf("nn: train: %w", err)
	}
	if cfg.Penalty == nil {
		cfg.Penalty = NonePenalty{}
	}
	nw := cfg.workers()
	maxBatch := min(cfg.Batch, train.Len())
	shardCap := shardChunk(maxBatch, nw)
	shards := make([]*trainShard, nw)
	for i := range shards {
		shards[i] = &trainShard{g: net.newGrads(), bs: net.newBatchScratch(shardCap, true)}
	}
	updates := newCoreUpdates(net, shards)
	pool := newPool(nw)
	defer pool.close()

	src := rng.NewPCG32(cfg.Seed, 77)
	lr := cfg.LR
	var lastLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		batches := dataset.Batches(src, train.Len(), cfg.Batch, true)
		var totalLoss float64
		var totalCorrect int
		for _, batch := range batches {
			chunk := shardChunk(len(batch), nw)
			active := (len(batch) + chunk - 1) / chunk
			pool.run(active, func(w int) {
				lo := w * chunk
				hi := min(lo+chunk, len(batch))
				shards[w].run(net, inputs, train.Y, batch[lo:hi])
			})
			for w := 0; w < active; w++ {
				totalLoss += shards[w].loss
				totalCorrect += shards[w].correct
			}
			lambda := cfg.Lambda
			if epoch < cfg.Warmup {
				lambda = 0
			}
			step := updateStep{active: active, inv: 1 / float64(len(batch)), lr: lr, lambda: lambda,
				momentum: cfg.Momentum, cmax: net.CMax}
			applyUpdate(pool, updates, step, cfg.Penalty)
		}
		lastLoss = totalLoss / float64(train.Len())
		if cfg.Progress != nil {
			cfg.Progress(epoch, lastLoss, float64(totalCorrect)/float64(train.Len()))
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return lastLoss, nil
}

// validateSGD rejects settings Train and TrainMLP cannot run: a non-positive
// batch, a negative epoch count, or a non-finite rate, momentum, rate decay
// or lambda (any of which would turn every weight into NaN).
func validateSGD(batch, epochs int, lr, momentum, lrDecay, lambda float64) error {
	if batch <= 0 {
		return fmt.Errorf("batch size %d is not positive", batch)
	}
	if epochs < 0 {
		return fmt.Errorf("epoch count %d is negative", epochs)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"learning rate", lr}, {"momentum", momentum}, {"rate decay", lrDecay}, {"lambda", lambda}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("%s %v is not finite", f.name, f.v)
		}
	}
	return nil
}

// coreUpdate is one core's share of the momentum SGD step: its weights, its
// velocity and every shard's gradient buffers for it. The table is built
// once per Train, so a batch's update allocates nothing.
type coreUpdate struct {
	c      *CoreSpec
	v      coreGrads
	gw, gb [][]float64 // [shard] weight and bias gradients
}

func newCoreUpdates(net *Network, shards []*trainShard) []coreUpdate {
	velocity := net.newGrads()
	var ups []coreUpdate
	for li, l := range net.Layers {
		for ci, c := range l.Cores {
			u := coreUpdate{c: c, v: velocity.layers[li][ci]}
			for _, sh := range shards {
				g := sh.g.layers[li][ci]
				u.gw = append(u.gw, g.W.Data)
				u.gb = append(u.gb, g.Bias)
			}
			ups = append(ups, u)
		}
	}
	return ups
}

// updateStep carries one batch's update parameters: active shards, the
// 1/batch scale, and the epoch's rate and penalty weight.
type updateStep struct {
	active                          int
	inv, lr, lambda, momentum, cmax float64
}

// applyUpdate performs one momentum SGD step straight from the unreduced
// shard gradients:
// v <- momentum*v - lr*(sum(shardGrad)/batch + lambda*penaltyGrad);
// w <- clamp(w+v). It runs on the pool as one task per core. Every element
// is updated independently and folds the shard gradients in fixed
// ascending shard order, so neither the split nor the scheduling changes a
// bit: the result equals merging the buffers first, in one pass over
// gradient memory instead of two.
func applyUpdate(pool *pool, ups []coreUpdate, st updateStep, pen Penalty) {
	pool.run(len(ups), func(t int) { updateCore(&ups[t], st, pen) })
}

func updateCore(u *coreUpdate, st updateStep, pen Penalty) {
	gw, gb := u.gw[:st.active], u.gb[:st.active]
	w, vw := u.c.W.Data, u.v.W.Data
	for i := range w {
		g := gw[0][i]
		for s := 1; s < len(gw); s++ {
			g += gw[s][i]
		}
		wi := w[i]
		grad := g*st.inv + st.lambda*pen.Grad(wi, st.cmax)
		vw[i] = st.momentum*vw[i] - st.lr*grad
		w[i] = tensor.Clamp(wi+vw[i], -st.cmax, st.cmax)
	}
	bias, vb := u.c.Bias, u.v.Bias
	for j := range bias {
		g := gb[0][j]
		for s := 1; s < len(gb); s++ {
			g += gb[s][j]
		}
		grad := g * st.inv
		vb[j] = st.momentum*vb[j] - st.lr*grad
		bias[j] += vb[j]
	}
}

// PadInputs returns the first n feature vectors of d zero-extended to the
// network input width (features are laid out on the Height x Width grid with
// trailing padding). A vector wider than the network is an error: truncating
// it would silently drop features.
func PadInputs(net *Network, d *dataset.Dataset, n int) ([][]float64, error) {
	want := net.Layers[0].InDim
	out := make([][]float64, n)
	for i, x := range d.X[:n] {
		switch {
		case len(x) == want:
			out[i] = x
		case len(x) > want:
			return nil, fmt.Errorf("input %d has %d features, network takes %d", i, len(x), want)
		default:
			p := make([]float64, want)
			copy(p, x)
			out[i] = p
		}
	}
	return out, nil
}

// evalBatch is the evaluation work unit: small enough that work stealing
// balances heterogeneous progress, large enough to amortize panel setup.
const evalBatch = 64

// Evaluate returns the expectation-model ("Caffe") accuracy of net on d.
// It runs on the same persistent pool and batched forward as Train: workers
// steal evalBatch-sized units off a shared counter and forward each unit
// through the minibatch kernels. Inputs are padded as in Train; a wider
// input panics.
func Evaluate(net *Network, d *dataset.Dataset, workers int) float64 {
	if d.Len() == 0 {
		return 0
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	inputs, err := PadInputs(net, d, d.Len())
	if err != nil {
		panic("nn: evaluate: " + err.Error())
	}
	units := (d.Len() + evalBatch - 1) / evalBatch
	workers = min(workers, units)
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	var scratch sync.Pool
	scratch.New = func() any { return net.newBatchScratch(evalBatch, false) }
	correct := make([]int, units)
	pool := newPool(workers)
	defer pool.close()
	pool.run(units, func(u int) {
		bs := scratch.Get().(*batchScratch)
		lo := u * evalBatch
		hi := min(lo+evalBatch, d.Len())
		net.forwardBatch(bs, inputs, idx[lo:hi])
		correct[u] = net.scoreBatch(bs, d.Y, idx[lo:hi])
		scratch.Put(bs)
	})
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(d.Len())
}

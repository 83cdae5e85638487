package nn

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// MLP is a conventional dense feed-forward network with ReLU hidden units and
// a softmax output. It exists to reproduce the paper's section 3.3 side
// experiment: the 784-300-100-10 network of LeCun et al. [16] trained with an
// L1 penalty, demonstrating that L1 zeroes out most weights (88.47% / 83.23% /
// 29.6% per layer) at a small accuracy cost — while NOT reducing synaptic
// variance, which motivates the biased penalty.
type MLP struct {
	// W[l] is the weight matrix of layer l (out x in); B[l] the bias.
	W []*tensor.Matrix
	B [][]float64
}

// NewMLP builds an MLP with the given layer widths (e.g. 784,300,100,10),
// He-style uniform initialization.
func NewMLP(src *rng.PCG32, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least input and output sizes")
	}
	m := &MLP{}
	for l := 0; l+1 < len(sizes); l++ {
		scale := math.Sqrt(6.0 / float64(sizes[l]))
		m.W = append(m.W, newUniformMatrix(src, sizes[l+1], sizes[l], scale))
		m.B = append(m.B, make([]float64, sizes[l+1]))
	}
	return m
}

// forward computes activations; acts[0] is the input, acts[L] the logits.
// This is the per-sample reference path (Predict, gradient checks); the
// training loop runs forwardBatch.
func (m *MLP) forward(acts [][]float64, x []float64) {
	copy(acts[0], x)
	for l, w := range m.W {
		tensor.MatVec(acts[l+1], w, acts[l])
		tensor.Axpy(acts[l+1], 1, m.B[l])
		if l+1 < len(acts)-1 { // hidden: ReLU
			for i, v := range acts[l+1] {
				if v < 0 {
					acts[l+1][i] = 0
				}
			}
		}
	}
}

func (m *MLP) newActs() [][]float64 {
	acts := make([][]float64, len(m.W)+1)
	acts[0] = make([]float64, m.W[0].Cols)
	for l, w := range m.W {
		acts[l+1] = make([]float64, w.Rows)
	}
	return acts
}

// Predict returns the logits for x.
func (m *MLP) Predict(x []float64) []float64 {
	acts := m.newActs()
	m.forward(acts, x)
	return acts[len(acts)-1]
}

// mlpShard owns one gradient-reduction slot of the data-parallel fan-out:
// gradient buffers plus (batch x dim) activation/delta panels. Shards are
// separate heap allocations, so per-shard accumulators share no cache lines.
type mlpShard struct {
	acts, deltas []*tensor.Matrix
	labels       []int
	gW           []*tensor.Matrix
	gB           [][]float64
}

// newMLPShard sizes a shard's panels; withGrad additionally allocates the
// delta panels and gradient buffers (evaluation is forward-only).
func newMLPShard(m *MLP, capacity int, withGrad bool) *mlpShard {
	sh := &mlpShard{labels: make([]int, capacity)}
	sh.acts = append(sh.acts, tensor.New(capacity, m.W[0].Cols))
	if withGrad {
		sh.deltas = append(sh.deltas, (*tensor.Matrix)(nil)) // input deltas unused
	}
	for _, w := range m.W {
		sh.acts = append(sh.acts, tensor.New(capacity, w.Rows))
		if withGrad {
			sh.deltas = append(sh.deltas, tensor.New(capacity, w.Rows))
			sh.gW = append(sh.gW, tensor.New(w.Rows, w.Cols))
			sh.gB = append(sh.gB, make([]float64, w.Rows))
		}
	}
	return sh
}

// forwardBatch runs the dense layers for b rows of the shard's input panel:
// one GemmT + bias row-add (+ batched ReLU) per layer.
func (m *MLP) forwardBatch(sh *mlpShard, b int) {
	L := len(m.W)
	for l, w := range m.W {
		out := rows(sh.acts[l+1], b)
		tensor.GemmT(out, rows(sh.acts[l], b), w)
		tensor.AddRowVec(out, m.B[l])
		if l+1 < L { // hidden: ReLU
			tensor.Relu(out)
		}
	}
}

// backpropBatch computes gradients for the shard's b gathered samples:
// batched softmax/loss-grad, then per layer one GemmAT (weight gradients,
// overwriting — each gW gets exactly one call per batch), one column
// reduction (bias gradients) and one Gemm (input deltas). Every gradient
// element accumulates its per-sample terms in ascending sample order,
// bit-identical to backpropOne called sample by sample.
func (m *MLP) backpropBatch(sh *mlpShard, b int) {
	L := len(m.W)
	dOut := rows(sh.deltas[L], b)
	tensor.SoftmaxRows(dOut, rows(sh.acts[L], b))
	tensor.SubOneHot(dOut, sh.labels[:b])
	for l := L - 1; l >= 0; l-- {
		d := rows(sh.deltas[l+1], b)
		tensor.GemmAT(sh.gW[l], d, rows(sh.acts[l], b))
		for i := range sh.gB[l] {
			sh.gB[l][i] = 0
		}
		tensor.ColSumAcc(sh.gB[l], d)
		if l > 0 {
			dPrev := rows(sh.deltas[l], b)
			tensor.Gemm(dPrev, d, m.W[l])
			tensor.ReluBackward(dPrev, rows(sh.acts[l], b))
		}
	}
}

// MLPTrainConfig configures TrainMLP.
type MLPTrainConfig struct {
	Epochs   int
	Batch    int
	LR       float64
	Momentum float64
	LRDecay  float64
	Lambda   float64 // L1 coefficient
	Seed     uint64
	Workers  int
}

// TrainMLP runs minibatch SGD with momentum and optional L1 penalty. Like
// Train, the hot loop is batched over the tensor GEMM kernels on a
// persistent work-stealing pool with a fixed-order gradient reduction, and
// stays bit-identical to the per-sample reference (pinned by batch_test.go).
// Settings Train rejects (a non-positive batch, negative epochs, a non-finite
// rate, momentum, decay or lambda) return an error before any weight moves.
func TrainMLP(m *MLP, train *dataset.Dataset, cfg MLPTrainConfig) error {
	if err := validateSGD(cfg.Batch, cfg.Epochs, cfg.LR, cfg.Momentum, cfg.LRDecay, cfg.Lambda); err != nil {
		return fmt.Errorf("nn: TrainMLP: %w", err)
	}
	if train.Len() == 0 {
		return fmt.Errorf("nn: TrainMLP: empty dataset")
	}
	if train.FeatDim != m.W[0].Cols {
		return fmt.Errorf("nn: TrainMLP: %d features vs %d inputs", train.FeatDim, m.W[0].Cols)
	}
	nw := cfg.Workers
	if nw <= 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	maxBatch := min(cfg.Batch, train.Len())
	shardCap := shardChunk(maxBatch, nw)
	shards := make([]*mlpShard, nw)
	for i := range shards {
		shards[i] = newMLPShard(m, shardCap, true)
	}
	velW := make([]*tensor.Matrix, len(m.W))
	velB := make([][]float64, len(m.W))
	for l, w := range m.W {
		velW[l] = tensor.New(w.Rows, w.Cols)
		velB[l] = make([]float64, w.Rows)
	}
	pool := newPool(nw)
	defer pool.close()

	src := rng.NewPCG32(cfg.Seed, 88)
	lr := cfg.LR
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		for _, batch := range dataset.Batches(src, train.Len(), cfg.Batch, true) {
			chunk := shardChunk(len(batch), nw)
			active := (len(batch) + chunk - 1) / chunk
			pool.run(active, func(w int) {
				sh := shards[w]
				lo := w * chunk
				hi := min(lo+chunk, len(batch))
				b := hi - lo
				for s, si := range batch[lo:hi] {
					copy(sh.acts[0].Row(s), train.X[si])
					sh.labels[s] = train.Y[si]
				}
				m.forwardBatch(sh, b)
				m.backpropBatch(sh, b)
			})
			// The shard reduction folds into the update pass in fixed
			// ascending shard order, bit-identical to merging first.
			inv := 1 / float64(len(batch))
			for l := range m.W {
				for i := range m.W[l].Data {
					g := shards[0].gW[l].Data[i]
					for s := 1; s < active; s++ {
						g += shards[s].gW[l].Data[i]
					}
					w := m.W[l].Data[i]
					grad := g*inv + cfg.Lambda*sign(w)
					velW[l].Data[i] = cfg.Momentum*velW[l].Data[i] - lr*grad
					m.W[l].Data[i] = w + velW[l].Data[i]
				}
				for i := range m.B[l] {
					g := shards[0].gB[l][i]
					for s := 1; s < active; s++ {
						g += shards[s].gB[l][i]
					}
					velB[l][i] = cfg.Momentum*velB[l][i] - lr*g*inv
					m.B[l][i] += velB[l][i]
				}
			}
		}
		if cfg.LRDecay > 0 {
			lr *= cfg.LRDecay
		}
	}
	return nil
}

// backpropOne accumulates gradients for one (x, y) pair. It is the reference
// the batched path is pinned against (and the target of the numeric
// gradient check).
func (m *MLP) backpropOne(acts, deltas [][]float64, probs []float64, gW []*tensor.Matrix, gB [][]float64, x []float64, y int) {
	m.forward(acts, x)
	L := len(m.W)
	logits := acts[L]
	tensor.Softmax(probs, logits)
	for i := range deltas[L] {
		deltas[L][i] = probs[i]
	}
	deltas[L][y] -= 1
	for l := L - 1; l >= 0; l-- {
		tensor.OuterAcc(gW[l], 1, deltas[l+1], acts[l])
		tensor.Axpy(gB[l], 1, deltas[l+1])
		if l > 0 {
			tensor.MatTVec(deltas[l], m.W[l], deltas[l+1])
			for i, a := range acts[l] {
				if a <= 0 { // ReLU derivative
					deltas[l][i] = 0
				}
			}
		}
	}
}

// EvaluateMLP returns classification accuracy on d, forwarded in evalBatch
// panels through the batched GEMM path.
func EvaluateMLP(m *MLP, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	sh := newMLPShard(m, min(evalBatch, d.Len()), false)
	L := len(m.W)
	correct := 0
	for lo := 0; lo < d.Len(); lo += evalBatch {
		hi := min(lo+evalBatch, d.Len())
		b := hi - lo
		for s := 0; s < b; s++ {
			copy(sh.acts[0].Row(s), d.X[lo+s])
		}
		m.forwardBatch(sh, b)
		logits := rows(sh.acts[L], b)
		for s := 0; s < b; s++ {
			if tensor.ArgMax(logits.Row(s)) == d.Y[lo+s] {
				correct++
			}
		}
	}
	return float64(correct) / float64(d.Len())
}

// ZeroFractions returns, per layer, the fraction of weights whose magnitude
// falls below threshold — the paper's "weights that can be zeroed out".
func (m *MLP) ZeroFractions(threshold float64) []float64 {
	out := make([]float64, len(m.W))
	for l, w := range m.W {
		zero := 0
		for _, v := range w.Data {
			if math.Abs(v) < threshold {
				zero++
			}
		}
		out[l] = float64(zero) / float64(len(w.Data))
	}
	return out
}

// PruneBelow zeroes all weights with magnitude below threshold.
func (m *MLP) PruneBelow(threshold float64) {
	for _, w := range m.W {
		for i, v := range w.Data {
			if math.Abs(v) < threshold {
				w.Data[i] = 0
			}
		}
	}
}

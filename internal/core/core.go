// Package core exposes the paper's contribution as a library API: Tea
// learning and probability-biased learning for TrueNorth deployment
// (Wen et al., "A New Learning Method for Inference Accuracy, Core
// Occupation, and Performance Co-optimization on TrueNorth Chip", DAC 2016).
//
// The workflow is train -> deploy -> evaluate:
//
//	spec := core.TrainSpec{Arch: arch, Penalty: "biased", Lambda: 5e-4, ...}
//	model, _ := core.TrainModel(spec, trainSet, testSet)
//	res, _ := model.DeployAccuracy(testSet, deploy.DefaultEvalConfig())
//
// Package core also provides the variance theory of section 3.2 (Eqs. 12-15),
// which explains why biasing connection probabilities toward {0,1} shrinks
// the per-copy deviation of the deployed network.
package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// SynapticVariance is Eq. (15): var{w'} = c^2 p (1-p) for a synapse with
// connection probability p = |w|/cmax and integer weight magnitude cmax.
// It vanishes at the deterministic poles p = 0 and p = 1 and peaks at the
// centroid p = 0.5 — the shape the biasing penalty exploits.
func SynapticVariance(w, cmax float64) float64 {
	p := math.Abs(w) / cmax
	if p > 1 {
		p = 1
	}
	return cmax * cmax * p * (1 - p)
}

// ContributionVariance is one term of Eq. (14): var{w' x'} for a synapse with
// trained weight w and input spike probability x, combining synapse sampling
// randomness and input spike randomness.
func ContributionVariance(w, x, cmax float64) float64 {
	p := math.Abs(w) / cmax
	if p > 1 {
		p = 1
	}
	px := p * x
	return cmax * cmax * px * (1 - px)
}

// MeanSynapticVariance averages Eq. (15) over every connection of the
// network: the quantity probability-biased learning minimizes.
func MeanSynapticVariance(net *nn.Network) float64 {
	total, count := 0.0, 0
	for _, w := range net.Weights() {
		total += SynapticVariance(w, net.CMax)
		count++
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// ProbabilityHistogram bins the network's connection probabilities |w|/CMax
// into bins equal-width buckets over [0,1] and returns normalized mass —
// the paper's Figure 5 distributions.
func ProbabilityHistogram(net *nn.Network, bins int) []float64 {
	probs := net.Probabilities()
	h := tensor.Histogram(probs, 0, 1, bins)
	out := make([]float64, bins)
	n := float64(len(probs))
	for i, c := range h {
		out[i] = float64(c) / n
	}
	return out
}

// PolarFraction returns the fraction of connection probabilities within eps
// of a deterministic pole (0 or 1) — a scalar summary of Figure 5(c).
func PolarFraction(net *nn.Network, eps float64) float64 {
	probs := net.Probabilities()
	if len(probs) == 0 {
		return 0
	}
	polar := 0
	for _, p := range probs {
		if p <= eps || p >= 1-eps {
			polar++
		}
	}
	return float64(polar) / float64(len(probs))
}

// ModelMeta records how a model was produced and how it scored.
type ModelMeta struct {
	Bench         string  `json:"bench"`
	Penalty       string  `json:"penalty"`
	Lambda        float64 `json:"lambda"`
	Epochs        int     `json:"epochs"`
	Seed          uint64  `json:"seed"`
	FloatAccuracy float64 `json:"float_accuracy"`
	TrainLoss     float64 `json:"train_loss"`
	Cores         int     `json:"cores"`
}

// Model couples a trained network with its provenance.
type Model struct {
	Net  *nn.Network
	Meta ModelMeta
}

// TrainSpec describes one training run.
type TrainSpec struct {
	// Arch is the block-structured network architecture (Figure 3 family).
	Arch *nn.Arch
	// Penalty is one of "none", "l1", "l2", "biased".
	Penalty string
	// Lambda is the Eq. (16) regularization coefficient.
	Lambda float64
	// Train carries SGD hyperparameters; its Penalty/Lambda fields are
	// overwritten from this spec.
	Train nn.TrainConfig
	// Seed drives weight initialization (training order derives from
	// Train.Seed).
	Seed uint64
}

// TrainModel trains a model per spec and evaluates its float ("Caffe")
// accuracy on test. The returned model carries full provenance.
func TrainModel(spec TrainSpec, train, test *dataset.Dataset) (*Model, error) {
	pen, ok := nn.PenaltyByName(spec.Penalty)
	if !ok {
		return nil, fmt.Errorf("core: unknown penalty %q", spec.Penalty)
	}
	net, err := spec.Arch.Build(rng.NewPCG32(spec.Seed, 21), 1)
	if err != nil {
		return nil, fmt.Errorf("core: build %q: %w", spec.Arch.Name, err)
	}
	cfg := spec.Train
	cfg.Penalty = pen
	cfg.Lambda = spec.Lambda
	loss, err := nn.Train(net, train, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: train %q: %w", spec.Arch.Name, err)
	}
	m := &Model{Net: net, Meta: ModelMeta{
		Bench:         spec.Arch.Name,
		Penalty:       pen.Name(),
		Lambda:        spec.Lambda,
		Epochs:        cfg.Epochs,
		Seed:          spec.Seed,
		FloatAccuracy: nn.Evaluate(net, test, cfg.Workers),
		TrainLoss:     loss,
		Cores:         net.NumCores(),
	}}
	return m, nil
}

// DeployAccuracy samples the model onto simulated TrueNorth hardware and
// measures classification accuracy at the configured (copies, spf) point.
func (m *Model) DeployAccuracy(test *dataset.Dataset, cfg deploy.EvalConfig) (deploy.Result, error) {
	return deploy.Evaluate(m.Net, test, cfg)
}

// modelEnvelope is the on-disk format: metadata plus the serialized network.
type modelEnvelope struct {
	Meta ModelMeta       `json:"meta"`
	Net  json.RawMessage `json:"net"`
}

// SaveFile writes the model (meta + weights) as JSON.
func (m *Model) SaveFile(path string) error {
	var buf bytes.Buffer
	if err := m.Net.Write(&buf); err != nil {
		return fmt.Errorf("core: encode network: %w", err)
	}
	env := modelEnvelope{Meta: m.Meta, Net: buf.Bytes()}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: save model: %w", err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(&env); err != nil {
		return fmt.Errorf("core: encode model: %w", err)
	}
	return f.Close()
}

// LoadModel reads a model written by SaveFile.
func LoadModel(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	defer f.Close()
	var env modelEnvelope
	if err := json.NewDecoder(f).Decode(&env); err != nil {
		return nil, fmt.Errorf("core: decode model: %w", err)
	}
	net, err := nn.Read(bytes.NewReader(env.Net))
	if err != nil {
		return nil, err
	}
	return &Model{Net: net, Meta: env.Meta}, nil
}

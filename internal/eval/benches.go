// Package eval is the experiment harness: it maps every table and figure of
// the paper's evaluation section to a function that regenerates it on the
// simulated TrueNorth substrate (see docs/ARCHITECTURE.md "Experiment index").
package eval

import (
	"context"
	"fmt"

	"repro/internal/nn"
	"repro/internal/synth/digits"
	"repro/internal/synth/protein"
)

// Bench is one of the paper's five test benches (Table 3).
type Bench struct {
	ID      int
	Name    string
	Dataset string // "digits" or "protein"
	Arch    *nn.Arch
	// PaperFloat is the accuracy Table 3 reports for Caffe training, kept for
	// side-by-side printing (our data is synthetic; shapes, not values, are
	// the reproduction target).
	PaperFloat float64
	// PaperCores is Table 3's "cores per layer" column.
	PaperCores []int
}

// Benches returns the five test benches exactly as configured in Table 3:
// block strides {12,4,2} on 28x28 MNIST-like data and {3,1} on the 19x19
// reshaped protein data, with hidden core-layer chains 49~9~4 and 16~9 for
// the deep variants.
func Benches() []Bench {
	return []Bench{
		{
			ID: 1, Name: "bench1-mnist-s12", Dataset: "digits",
			Arch: &nn.Arch{
				Name: "bench1-mnist-s12", InputH: 28, InputW: 28,
				Block: 16, Stride: 12, CoreSize: 256, Classes: 10, Tau: 12,
			},
			PaperFloat: 0.9527, PaperCores: []int{4},
		},
		{
			ID: 2, Name: "bench2-mnist-s4", Dataset: "digits",
			Arch: &nn.Arch{
				Name: "bench2-mnist-s4", InputH: 28, InputW: 28,
				Block: 16, Stride: 4, CoreSize: 256, Classes: 10, Tau: 12,
			},
			PaperFloat: 0.9671, PaperCores: []int{16},
		},
		{
			ID: 3, Name: "bench3-mnist-s2", Dataset: "digits",
			Arch: &nn.Arch{
				Name: "bench3-mnist-s2", InputH: 28, InputW: 28,
				Block: 16, Stride: 2, CoreSize: 256, Classes: 10, Tau: 12,
				Windows: []nn.Window{{Size: 3, Stride: 2}, {Size: 2, Stride: 1}},
			},
			PaperFloat: 0.9705, PaperCores: []int{49, 9, 4},
		},
		{
			ID: 4, Name: "bench4-rs130-s3", Dataset: "protein",
			Arch: &nn.Arch{
				Name: "bench4-rs130-s3", InputH: 19, InputW: 19,
				Block: 16, Stride: 3, CoreSize: 256, Classes: 3, Tau: 12,
			},
			PaperFloat: 0.6909, PaperCores: []int{4},
		},
		{
			ID: 5, Name: "bench5-rs130-s1", Dataset: "protein",
			Arch: &nn.Arch{
				Name: "bench5-rs130-s1", InputH: 19, InputW: 19,
				Block: 16, Stride: 1, CoreSize: 256, Classes: 3, Tau: 12,
				Windows: []nn.Window{{Size: 2, Stride: 1}},
			},
			PaperFloat: 0.6965, PaperCores: []int{16, 9},
		},
	}
}

// BenchByID returns the bench with the given 1-based id.
func BenchByID(id int) (Bench, error) {
	for _, b := range Benches() {
		if b.ID == id {
			return b, nil
		}
	}
	return Bench{}, fmt.Errorf("eval: no bench %d (have 1-5)", id)
}

// Options scales every experiment between a full paper-protocol run and a
// quick smoke run.
type Options struct {
	// Quick shrinks datasets, epochs and repeats for fast iteration.
	Quick bool
	// Seed derives data generation, training and deployment randomness.
	Seed uint64
	// Workers caps goroutine parallelism (0 = GOMAXPROCS).
	Workers int
	// OutDir, when non-empty, receives CSV dumps and PGM images.
	OutDir string
	// TrainN, TestN, EpochsN and RepeatsN, when positive, override the
	// Quick/full defaults (used by unit tests and custom CLI runs).
	TrainN, TestN, EpochsN, RepeatsN int
	// BatchN, when positive, overrides the SGD minibatch size (default 32).
	// Larger batches feed the batched training kernels bigger panels per
	// worker shard.
	BatchN int
	// Conf, when in (0,1], narrows the earlyexit experiment's confidence
	// sweep to {0, Conf} (exact reference plus one gated point).
	Conf float64
	// FaultSpec, when non-empty, replaces the faults experiment's default
	// sweep grid with this single fault spec (internal/fault.ParseSpec
	// syntax), evaluated against its own zero-fault reference point.
	FaultSpec string
	// Place selects the chipscale experiment's placement strategy
	// ("naive", "layered" or "anneal"; empty = anneal).
	Place string
	// Ctx, when non-nil, cancels in-flight deployment evaluations (the
	// engine checks it between frames).
	Ctx context.Context
}

// TrainSizes returns train/test sample counts for a dataset under o.
func (o Options) TrainSizes(datasetName string) (train, test int) {
	if o.TrainN > 0 && o.TestN > 0 {
		return o.TrainN, o.TestN
	}
	switch datasetName {
	case "digits":
		if o.Quick {
			return 8000, 2000
		}
		return 60000, 10000 // Table 1
	case "protein":
		if o.Quick {
			return 6000, 2000
		}
		return 17766, 6621 // Table 1
	}
	panic(fmt.Sprintf("eval: unknown dataset %q", datasetName))
}

// Epochs returns the training epoch budget (paper section 3.1: 10 epochs).
func (o Options) Epochs() int {
	if o.EpochsN > 0 {
		return o.EpochsN
	}
	if o.Quick {
		return 6
	}
	return 10
}

// Repeats returns the deployment resampling count (paper: averages of 10).
func (o Options) Repeats() int {
	if o.RepeatsN > 0 {
		return o.RepeatsN
	}
	if o.Quick {
		return 3
	}
	return 10
}

// EvalLimit bounds the test samples used for deployment evaluation
// (0 = the full test split).
func (o Options) EvalLimit() int {
	if o.Quick {
		return 1000
	}
	return 2000
}

// digitsConfig builds the generator configuration for digit benches.
func (o Options) digitsConfig() digits.Config {
	cfg := digits.DefaultConfig()
	cfg.Train, cfg.Test = o.TrainSizes("digits")
	cfg.Seed = o.Seed
	return cfg
}

// proteinConfig builds the generator configuration for protein benches.
func (o Options) proteinConfig() protein.Config {
	cfg := protein.DefaultConfig()
	cfg.Train, cfg.Test = o.TrainSizes("protein")
	cfg.Seed = o.Seed + 1
	return cfg
}

// Batch returns the SGD minibatch size.
func (o Options) Batch() int {
	if o.BatchN > 0 {
		return o.BatchN
	}
	return 32
}

// TrainConfig returns the per-bench SGD configuration. One schedule serves
// all benches; the biased runs add the penalty with a warmup third.
func (o Options) TrainConfig(penalty string) (nn.TrainConfig, float64) {
	cfg := nn.TrainConfig{
		Epochs:   o.Epochs(),
		Batch:    o.Batch(),
		LR:       0.1,
		Momentum: 0.9,
		LRDecay:  0.85,
		Seed:     o.Seed,
		Workers:  o.Workers,
	}
	var lambda float64
	switch penalty {
	case "biased":
		lambda = 0.0005
		cfg.Warmup = cfg.Epochs / 3
	case "l1":
		lambda = 0.00005
		cfg.Warmup = cfg.Epochs / 3
	case "l2":
		lambda = 0.0001
	}
	return cfg, lambda
}

package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/synth/digits"
)

const (
	// trainSeed fixes the training corpus and the weight initialization:
	// the model is the same in every run, and --seed varies only what is
	// evaluated on it.
	trainSeed = 20160605
	// trainWorkers fixes the trainer's shard count. Training is
	// bit-reproducible for a given shard count, so the model stays
	// bit-identical under any GOMAXPROCS.
	trainWorkers = 2
)

func seconds(since time.Time) float64 { return time.Since(since).Seconds() }

func ms(since time.Time) float64 { return float64(time.Since(since).Nanoseconds()) / 1e6 }

// prepare runs the set-up steps every workload shares: it synthesizes the
// fixed training corpus and the seeded held-out digits, then trains the
// bench-1 biased model with the paper's learning method on the
// eval.Options.TrainConfig("biased") schedule.
func prepare(cfg config, lt map[string]float64) (*core.Model, *dataset.Dataset, error) {
	bench, err := eval.BenchByID(1)
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	dc := digits.DefaultConfig()
	dc.Train, dc.Test, dc.Seed = cfg.size.trainN, 0, trainSeed
	train, _ := digits.Generate(dc)
	dc.Train, dc.Test, dc.Seed = 0, cfg.size.testN, cfg.seed
	_, test := digits.Generate(dc)
	lt["synth.generate_s"] = seconds(start)

	opt := eval.Options{Seed: trainSeed, EpochsN: cfg.size.epochs, Workers: trainWorkers}
	tc, lambda := opt.TrainConfig("biased")
	start = time.Now()
	m, err := core.TrainModel(core.TrainSpec{
		Arch: bench.Arch, Penalty: "biased", Lambda: lambda, Train: tc, Seed: trainSeed + uint64(bench.ID),
	}, train, test)
	if err != nil {
		return nil, nil, fmt.Errorf("train: %w", err)
	}
	lt["nn.train_s"] = seconds(start)
	lt["nn.train_samples_per_s"] = float64(cfg.size.trainN*cfg.size.epochs) / lt["nn.train_s"]
	return m, test, nil
}

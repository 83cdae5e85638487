package deploy

import (
	"context"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
)

// EvalConfig controls Monte-Carlo deployment evaluation.
type EvalConfig struct {
	// Copies is the number of spatial network copies averaged (paper: 1-16).
	Copies int
	// SPF is the number of temporal spike samples per pixel (paper: 1-13).
	SPF int
	// Repeats is the number of independent deployments averaged; the paper
	// uses 10 ("we have averaged accuracy at each grid over ten results").
	Repeats int
	// Limit evaluates only the first Limit test samples (0 = all).
	Limit int
	// Seed derives every sampling and spike stream.
	Seed uint64
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// Sample configures per-copy sampling.
	Sample SampleConfig
	// Ctx optionally cancels the evaluation early (nil = never).
	Ctx context.Context
}

// DefaultEvalConfig mirrors the paper's measurement protocol.
func DefaultEvalConfig() EvalConfig {
	return EvalConfig{Copies: 1, SPF: 1, Repeats: 10, Seed: 1, Sample: DefaultSampleConfig()}
}

// engineConfig translates the evaluation limits into an engine pool config.
func (c *EvalConfig) engineConfig() engine.Config {
	return engine.Config{Workers: c.Workers, Ctx: c.Ctx}
}

// Result is a deployment accuracy measurement.
type Result struct {
	Accuracy float64 // mean over repeats
	StdDev   float64 // std over repeats
	Copies   int
	SPF      int
	Cores    int // Copies * cores-per-copy: the paper's occupation metric
}

// Evaluate measures deployed accuracy of net on d at one (copies, spf) point.
func Evaluate(net *nn.Network, d *dataset.Dataset, cfg EvalConfig) (Result, error) {
	surf, err := Surface(net, d, cfg.Copies, cfg.SPF, cfg)
	if err != nil {
		return Result{}, err
	}
	cell := surf.Cell(cfg.Copies, cfg.SPF)
	return cell, nil
}

// SurfaceResult is the full accuracy grid of Figure 7: mean deployed accuracy
// for every (copies, spf) combination up to the sampled maxima.
type SurfaceResult struct {
	MaxCopies, MaxSPF int
	CoresPerCopy      int
	// Mean[c][s] is the mean accuracy with c+1 copies and s+1 spf.
	Mean [][]float64
	// Std[c][s] is the across-repeat standard deviation.
	Std [][]float64
}

// Cell returns the Result at (copies, spf), both 1-based.
func (r *SurfaceResult) Cell(copies, spf int) Result {
	return Result{
		Accuracy: r.Mean[copies-1][spf-1],
		StdDev:   r.Std[copies-1][spf-1],
		Copies:   copies,
		SPF:      spf,
		Cores:    copies * r.CoresPerCopy,
	}
}

// Surface evaluates the whole accuracy grid in a single pass per repeat: each
// repeat samples maxCopies independent network copies, wraps each in a
// FastPredictor, and hands the ensemble to engine.Grid, which owns the
// chunked fan-out, the per-image rng stream derivation, and the
// inclusion-exclusion prefix trick that prices every (copies, spf) cell at
// the cost of the largest one. All repeats' copies are sampled up front on
// the engine pool; their streams and the grid roots are derived serially
// first, in the order a one-repeat-at-a-time loop would split them. Results
// are bit-identical for any worker count. An input wider than the network
// is an error; narrower inputs are zero-padded.
func Surface(net *nn.Network, d *dataset.Dataset, maxCopies, maxSPF int, cfg EvalConfig) (*SurfaceResult, error) {
	if maxCopies <= 0 || maxSPF <= 0 {
		return nil, fmt.Errorf("deploy: non-positive surface dims %dx%d", maxCopies, maxSPF)
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	n := d.Len()
	if cfg.Limit > 0 && cfg.Limit < n {
		n = cfg.Limit
	}
	if n == 0 {
		return nil, fmt.Errorf("deploy: empty dataset")
	}
	repeats := cfg.Repeats
	if repeats <= 0 {
		repeats = 1
	}

	inputs, err := nn.PadInputs(net, d, n)
	if err != nil {
		return nil, fmt.Errorf("deploy: %w", err)
	}
	res := &SurfaceResult{MaxCopies: maxCopies, MaxSPF: maxSPF, CoresPerCopy: net.NumCores()}
	res.Mean = engine.NewGrid(maxCopies, maxSPF)
	res.Std = engine.NewGrid(maxCopies, maxSPF)
	accs := make([][][]float64, repeats) // [repeat][copies][spf]

	// One compile amortizes weight quantization over all repeats*maxCopies
	// sampled copies; the draw sequence is unchanged.
	plan := CompileQuant(net)
	root := rng.NewPCG32(cfg.Seed, 11)
	// Item rep*maxCopies+c is copy c of repeat rep. RunSeeded derives the
	// streams serially in item order, so each repeat's stream splits its
	// copies and then its grid root exactly as a serial per-repeat loop would.
	var repSrc *rng.PCG32
	gridRoots := make([]*rng.PCG32, repeats)
	seed := func(i int, dst *rng.PCG32) {
		rep, c := i/maxCopies, i%maxCopies
		if c == 0 {
			repSrc = root.Split(uint64(rep))
		}
		repSrc.SplitInto(dst, uint64(c))
		if c == maxCopies-1 {
			gridRoots[rep] = repSrc.Split(1 << 32)
		}
	}
	preds := make([]engine.TickPredictor, repeats*maxCopies)
	sample := func(_ struct{}, i int, src *rng.PCG32) {
		preds[i] = &FastPredictor{Net: plan.Sample(src, cfg.Sample)}
	}
	if err := engine.RunSeeded(cfg.engineConfig(), len(preds), seed, func() struct{} { return struct{}{} }, sample, nil); err != nil {
		return nil, fmt.Errorf("deploy: surface sampling: %w", err)
	}
	for rep := 0; rep < repeats; rep++ {
		correct, err := engine.Grid(preds[rep*maxCopies:(rep+1)*maxCopies], inputs, d.Y[:n], maxSPF, gridRoots[rep], cfg.engineConfig())
		if err != nil {
			return nil, fmt.Errorf("deploy: surface repeat %d: %w", rep, err)
		}
		grid := engine.NewGrid(maxCopies, maxSPF)
		for c := 0; c < maxCopies; c++ {
			for s := 0; s < maxSPF; s++ {
				grid[c][s] = float64(correct[c][s]) / float64(n)
			}
		}
		accs[rep] = grid
	}
	samples := make([]float64, repeats)
	for c := 0; c < maxCopies; c++ {
		for s := 0; s < maxSPF; s++ {
			for rep := range accs {
				samples[rep] = accs[rep][c][s]
			}
			res.Mean[c][s], res.Std[c][s] = engine.MeanStd(samples)
		}
	}
	return res, nil
}

package eval

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
)

// ---------------------------------------------------------------- Table 1 --

// Table1Row mirrors a row of the paper's dataset table.
type Table1Row struct {
	Dataset     string
	Description string
	TrainSize   int
	TestSize    int
	Features    int
	Classes     int
}

// Table1 reports the generated datasets (paper Table 1).
func Table1(r *Runner) ([]Table1Row, error) {
	b1, _ := BenchByID(1)
	b4, _ := BenchByID(4)
	dTrain, dTest := r.Data(b1)
	pTrain, pTest := r.Data(b4)
	return []Table1Row{
		{"digits (synthetic MNIST)", "Handwritten-style digits", dTrain.Len(), dTest.Len(), dTrain.FeatDim, dTrain.NumClasses},
		{"protein (synthetic RS130)", "Secondary structure windows", pTrain.Len(), pTest.Len(), pTrain.FeatDim, pTrain.NumClasses},
	}, nil
}

// ------------------------------------------------------------ Section 3.1 --

// Section31Result reproduces the motivating numbers of section 3.1: float
// accuracy, single-copy deployed accuracy, and 16-copy recovery.
type Section31Result struct {
	FloatAcc      float64 // paper: 0.9527
	Deployed1Acc  float64 // paper: 0.9004
	Deployed16Acc float64 // paper: 0.9463
	Cores1        int     // paper: 4
	Cores16       int     // paper: 64
}

// Section31 measures the Tea-learning deployment gap on test bench 1.
func Section31(r *Runner) (*Section31Result, error) {
	b, _ := BenchByID(1)
	m, err := r.Model(b, "none")
	if err != nil {
		return nil, err
	}
	surf, err := r.Surface(b, "none", 16, 1)
	if err != nil {
		return nil, err
	}
	return &Section31Result{
		FloatAcc:      m.Meta.FloatAccuracy,
		Deployed1Acc:  surf.Mean[0][0],
		Deployed16Acc: surf.Mean[15][0],
		Cores1:        surf.CoresPerCopy,
		Cores16:       16 * surf.CoresPerCopy,
	}, nil
}

// ------------------------------------------------------------ L1 sparsity --

// L1SparsityResult reproduces the section 3.3 side experiment on the
// 784-300-100-10 network of LeCun et al.: L1 zeroes most weights at a small
// accuracy cost (paper: 88.47%/83.23%/29.6% zeros, 97.65% -> 96.87%).
type L1SparsityResult struct {
	BaseAcc       float64
	L1Acc         float64
	PrunedAcc     float64
	ZeroFractions []float64 // per layer, under L1
	BaseZeros     []float64 // per layer, without penalty
}

// l1SparsityModels trains the two section 3.3 MLPs (no penalty and L1).
// Split out so the l1sparsity row's Train step can run the training alone.
func l1SparsityModels(r *Runner) (base, l1 *nn.MLP, err error) {
	b, _ := BenchByID(1)
	train, _ := r.Data(b)
	mk := func(lambda float64) (*nn.MLP, error) {
		m := nn.NewMLP(rng.NewPCG32(r.Opt.Seed+77, 1), 784, 300, 100, 10)
		cfg := nn.MLPTrainConfig{
			Epochs: r.Opt.Epochs(), Batch: r.Opt.Batch(), LR: 0.05, Momentum: 0.9, LRDecay: 0.9,
			Lambda: lambda, Seed: r.Opt.Seed, Workers: r.Opt.Workers,
		}
		if err := nn.TrainMLP(m, train, cfg); err != nil {
			return nil, err
		}
		return m, nil
	}
	if base, err = mk(0); err != nil {
		return nil, nil, err
	}
	if l1, err = mk(0.0001); err != nil {
		return nil, nil, err
	}
	return base, l1, nil
}

// L1Sparsity trains the dense MLP with and without L1.
func L1Sparsity(r *Runner) (*L1SparsityResult, error) {
	b, _ := BenchByID(1)
	_, test := r.Data(b)
	base, l1, err := l1SparsityModels(r)
	if err != nil {
		return nil, err
	}
	res := &L1SparsityResult{
		BaseAcc:       nn.EvaluateMLP(base, test),
		L1Acc:         nn.EvaluateMLP(l1, test),
		ZeroFractions: l1.ZeroFractions(0.01),
		BaseZeros:     base.ZeroFractions(0.01),
	}
	l1.PruneBelow(0.01)
	res.PrunedAcc = nn.EvaluateMLP(l1, test)
	return res, nil
}

// ---------------------------------------------------------------- Figure 5 --

// Fig5Result holds the probability histograms of Figure 5 plus the float and
// deployed accuracies the narrative quotes for each penalty.
type Fig5Result struct {
	Bins      int
	Penalties []string
	// Hist[i] is the normalized 20-bin histogram for Penalties[i].
	Hist [][]float64
	// FloatAcc[i] and DeployedAcc[i] are the section 3.3 accuracy quotes
	// (paper: float 95.27/95.36/95.03, deployed 90.04/89.83/92.78).
	FloatAcc    []float64
	DeployedAcc []float64
	// MeanVariance[i] is the Eq. 15 average the histogram shape implies.
	MeanVariance []float64
	PolarFrac    []float64
}

// Fig5 trains bench 1 under none/l1/biased and histograms the probabilities.
func Fig5(r *Runner) (*Fig5Result, error) {
	b, _ := BenchByID(1)
	res := &Fig5Result{Bins: 20, Penalties: []string{"none", "l1", "biased"}}
	for _, pen := range res.Penalties {
		m, err := r.Model(b, pen)
		if err != nil {
			return nil, err
		}
		surf, err := r.Surface(b, pen, 1, 1)
		if err != nil {
			return nil, err
		}
		res.Hist = append(res.Hist, core.ProbabilityHistogram(m.Net, res.Bins))
		res.FloatAcc = append(res.FloatAcc, m.Meta.FloatAccuracy)
		res.DeployedAcc = append(res.DeployedAcc, surf.Mean[0][0])
		res.MeanVariance = append(res.MeanVariance, core.MeanSynapticVariance(m.Net))
		res.PolarFrac = append(res.PolarFrac, core.PolarFraction(m.Net, 0.05))
	}
	return res, nil
}

// ---------------------------------------------------------------- Figure 4 --

// Fig4Result compares synaptic deviation maps (one sampled core) between Tea
// and biased learning. Paper: Tea has 24.01% of synapses deviating > 50%;
// biased has 98.45% exactly zero and < 0.02% over 50%.
type Fig4Result struct {
	Tea    deploy.DeviationStats
	Biased deploy.DeviationStats
	// PGMPaths lists written images when OutDir is set.
	PGMPaths []string
}

// Fig4 extracts deviation maps from layer 0, core 0 of test bench 1.
func Fig4(r *Runner) (*Fig4Result, error) {
	b, _ := BenchByID(1)
	res := &Fig4Result{}
	for i, pen := range []string{"none", "biased"} {
		m, err := r.Model(b, pen)
		if err != nil {
			return nil, err
		}
		dm, err := deploy.CoreDeviation(m.Net, 0, 0, rng.NewPCG32(r.Opt.Seed+2000, uint64(i)))
		if err != nil {
			return nil, err
		}
		if i == 0 {
			res.Tea = dm.Stats()
		} else {
			res.Biased = dm.Stats()
		}
		if r.Opt.OutDir != "" {
			path := filepath.Join(r.Opt.OutDir, fmt.Sprintf("fig4_%s.pgm", pen))
			f, err := os.Create(path)
			if err != nil {
				return nil, fmt.Errorf("eval: fig4 pgm: %w", err)
			}
			if err := dm.WritePGM(f); err != nil {
				f.Close()
				return nil, err
			}
			if err := f.Close(); err != nil {
				return nil, err
			}
			res.PGMPaths = append(res.PGMPaths, path)
		}
	}
	return res, nil
}

// ---------------------------------------------------------- Figures 7 & 8 --

// Fig7Result holds both accuracy surfaces over (copies 1..16) x (spf 1..4).
type Fig7Result struct {
	Tea    *deploy.SurfaceResult
	Biased *deploy.SurfaceResult
}

// Fig7 measures the Figure 7 surfaces on test bench 1.
func Fig7(r *Runner) (*Fig7Result, error) {
	b, _ := BenchByID(1)
	tea, err := r.Surface(b, "none", 16, 4)
	if err != nil {
		return nil, err
	}
	biased, err := r.Surface(b, "biased", 16, 4)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Tea: tea, Biased: biased}, nil
}

// Boost returns Figure 8: biased minus Tea accuracy per grid cell.
func (f *Fig7Result) Boost() [][]float64 {
	out := make([][]float64, len(f.Tea.Mean))
	for c := range out {
		out[c] = make([]float64, len(f.Tea.Mean[c]))
		for s := range out[c] {
			out[c][s] = f.Biased.Mean[c][s] - f.Tea.Mean[c][s]
		}
	}
	return out
}

// ---------------------------------------------------------------- Table 2 --

// Table2aResult is the core-occupation comparison at 1 spf.
type Table2aResult struct {
	N, B     []LadderEntry
	Pairings []Pairing
	AvgSaved float64 // paper: 49.5%
	MaxSaved float64 // paper: 68.8%
}

// Table2a builds the Table 2(a) ladders from the Figure 7 surfaces: Tea with
// 1..16 copies, biased with 1..5 copies, both at 1 spf.
func Table2a(r *Runner, f *Fig7Result) *Table2aResult {
	nAccs := make([]float64, 16)
	for c := 0; c < 16; c++ {
		nAccs[c] = f.Tea.Mean[c][0]
	}
	bAccs := make([]float64, 5)
	for c := 0; c < 5; c++ {
		bAccs[c] = f.Biased.Mean[c][0]
	}
	res := &Table2aResult{
		N: BuildLadder("N", f.Tea.CoresPerCopy, nAccs),
		B: BuildLadder("B", f.Biased.CoresPerCopy, bAccs),
	}
	res.Pairings = PairLadders(res.N, res.B)
	res.AvgSaved = AverageSavedPct(res.Pairings)
	res.MaxSaved = MaxSavedPct(res.Pairings)
	return res
}

// Table2bResult is the performance (spf) comparison at 1 network copy.
type Table2bResult struct {
	N, B       []LadderEntry
	Pairings   []Pairing
	MaxSpeedup float64 // paper: 6.5x
}

// Table2b measures spf ladders (1 copy): Tea at spf 1..13, biased at 1..13.
func Table2b(r *Runner) (*Table2bResult, error) {
	b, _ := BenchByID(1)
	tea, err := r.Surface(b, "none", 1, 13)
	if err != nil {
		return nil, err
	}
	biased, err := r.Surface(b, "biased", 1, 13)
	if err != nil {
		return nil, err
	}
	nAccs := make([]float64, 13)
	bAccs := make([]float64, 13)
	for s := 0; s < 13; s++ {
		nAccs[s] = tea.Mean[0][s]
		bAccs[s] = biased.Mean[0][s]
	}
	res := &Table2bResult{
		N: BuildLadder("N", 1, nAccs),
		B: BuildLadder("B", 1, bAccs),
	}
	res.Pairings = PairLadders(res.N, res.B)
	res.MaxSpeedup = MaxSpeedup(res.Pairings)
	return res, nil
}

// ---------------------------------------------------------------- Figure 9 --

// Fig9aResult is the average core saving as a function of spf.
type Fig9aResult struct {
	SPF      []int
	AvgSaved []float64
}

// Fig9a derives core savings at spf 1..4 from the Figure 7 surfaces.
func Fig9a(r *Runner, f *Fig7Result) *Fig9aResult {
	res := &Fig9aResult{}
	for s := 0; s < 4; s++ {
		nAccs := make([]float64, 16)
		for c := 0; c < 16; c++ {
			nAccs[c] = f.Tea.Mean[c][s]
		}
		bAccs := make([]float64, 5)
		for c := 0; c < 5; c++ {
			bAccs[c] = f.Biased.Mean[c][s]
		}
		ps := PairLadders(
			BuildLadder("N", f.Tea.CoresPerCopy, nAccs),
			BuildLadder("B", f.Biased.CoresPerCopy, bAccs),
		)
		res.SPF = append(res.SPF, s+1)
		res.AvgSaved = append(res.AvgSaved, AverageSavedPct(ps))
	}
	return res
}

// Fig9bResult is the average core saving per test bench at 1 spf.
type Fig9bResult struct {
	BenchIDs []int
	AvgSaved []float64
	FloatN   []float64
	FloatB   []float64
}

// Fig9b measures every test bench with both penalties.
func Fig9b(r *Runner) (*Fig9bResult, error) {
	res := &Fig9bResult{}
	for _, b := range Benches() {
		tea, err := r.Surface(b, "none", 16, 1)
		if err != nil {
			return nil, err
		}
		biased, err := r.Surface(b, "biased", 5, 1)
		if err != nil {
			return nil, err
		}
		nAccs := make([]float64, 16)
		for c := 0; c < 16; c++ {
			nAccs[c] = tea.Mean[c][0]
		}
		bAccs := make([]float64, 5)
		for c := 0; c < 5; c++ {
			bAccs[c] = biased.Mean[c][0]
		}
		ps := PairLadders(
			BuildLadder("N", tea.CoresPerCopy, nAccs),
			BuildLadder("B", biased.CoresPerCopy, bAccs),
		)
		mN, err := r.Model(b, "none")
		if err != nil {
			return nil, err
		}
		mB, err := r.Model(b, "biased")
		if err != nil {
			return nil, err
		}
		res.BenchIDs = append(res.BenchIDs, b.ID)
		res.AvgSaved = append(res.AvgSaved, AverageSavedPct(ps))
		res.FloatN = append(res.FloatN, mN.Meta.FloatAccuracy)
		res.FloatB = append(res.FloatB, mB.Meta.FloatAccuracy)
	}
	return res, nil
}

// ---------------------------------------------------------------- Table 3 --

// Table3Row describes one test bench with measured float accuracies.
type Table3Row struct {
	Bench      int
	Dataset    string
	Stride     int
	HiddenNum  int
	CoresPer   string
	TotalCores int
	PaperFloat float64
	FloatNone  float64
	FloatBias  float64
}

// Table3 trains every bench with none and biased penalties.
func Table3(r *Runner) ([]Table3Row, error) {
	var rows []Table3Row
	for _, b := range Benches() {
		mN, err := r.Model(b, "none")
		if err != nil {
			return nil, err
		}
		mB, err := r.Model(b, "biased")
		if err != nil {
			return nil, err
		}
		cores := b.Arch.CoresPerLayer()
		parts := make([]string, len(cores))
		for i, c := range cores {
			parts[i] = fmt.Sprintf("%d", c)
		}
		rows = append(rows, Table3Row{
			Bench:      b.ID,
			Dataset:    b.Dataset,
			Stride:     b.Arch.Stride,
			HiddenNum:  len(cores),
			CoresPer:   strings.Join(parts, "~"),
			TotalCores: b.Arch.TotalCores(),
			PaperFloat: b.PaperFloat,
			FloatNone:  mN.Meta.FloatAccuracy,
			FloatBias:  mB.Meta.FloatAccuracy,
		})
	}
	return rows, nil
}

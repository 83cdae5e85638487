// Package repro's root benchmark harness: one testing.B benchmark per table
// and figure of the paper (docs/ARCHITECTURE.md "Experiment index" maps each to its experiment).
//
// Each benchmark regenerates its experiment at micro scale (tiny datasets,
// few epochs) so `go test -bench=. -benchmem` finishes in minutes while still
// executing the full code path — dataset synthesis, Tea/biased training,
// Bernoulli deployment, spike-domain evaluation, and the paper's pairing
// procedure. Model training is hoisted into a shared, lazily initialized
// fixture so per-iteration cost reflects the measurement itself.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/synth/digits"
	"repro/internal/synth/protein"
)

var (
	fixtureOnce sync.Once
	fixture     *eval.Runner
)

// runner returns the shared micro-scale Runner with bench-1 models trained.
func runner(b *testing.B) *eval.Runner {
	b.Helper()
	fixtureOnce.Do(func() {
		opt := eval.Options{
			Quick: true, Seed: 20160605,
			TrainN: 600, TestN: 300, EpochsN: 3, RepeatsN: 2,
		}
		fixture = eval.NewRunner(opt, nil)
	})
	return fixture
}

// --------------------------------------------------------------- Table 1 --

func BenchmarkTable1DatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dcfg := digits.Config{Train: 200, Test: 50, Seed: uint64(i + 1), Jitter: 1, Noise: 0.06}
		train, test := digits.Generate(dcfg)
		if train.Len()+test.Len() != 250 {
			b.Fatal("bad split")
		}
		pcfg := protein.Config{Train: 200, Test: 50, Seed: uint64(i + 1), Sharpness: 1.35, MinLen: 60, MaxLen: 120}
		ptrain, _ := protein.Generate(pcfg)
		if ptrain.FeatDim != 357 {
			b.Fatal("bad protein dims")
		}
	}
}

// ----------------------------------------------------------- Section 3.1 --

func BenchmarkSection31DeploymentGap(b *testing.B) {
	r := runner(b)
	if _, err := eval.Section31(r); err != nil { // train once before timing
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Section31(r); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------------------ L1 sparsity --

func BenchmarkL1SparsityMLP(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	train, _ := r.Data(bench)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := nn.NewMLP(rng.NewPCG32(uint64(i+1), 1), 784, 64, 10)
		cfg := nn.MLPTrainConfig{Epochs: 1, Batch: 32, LR: 0.05, Momentum: 0.9,
			Lambda: 0.0001, Seed: uint64(i), Workers: 8}
		if err := nn.TrainMLP(m, train, cfg); err != nil {
			b.Fatal(err)
		}
		m.ZeroFractions(0.01)
	}
}

// --------------------------------------------------------------- Figure 4 --

func BenchmarkFig4DeviationMap(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "biased")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dm, err := deploy.CoreDeviation(m.Net, 0, 0, rng.NewPCG32(uint64(i+1), 1))
		if err != nil {
			b.Fatal(err)
		}
		dm.Stats()
	}
}

// --------------------------------------------------------------- Figure 5 --

func BenchmarkFig5Histograms(b *testing.B) {
	r := runner(b)
	if _, err := eval.Fig5(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig5(r); err != nil {
			b.Fatal(err)
		}
	}
}

// ----------------------------------------------------------- Figures 7/8 --

func BenchmarkFig7AccuracySurfaces(b *testing.B) {
	r := runner(b)
	if _, err := eval.Fig7(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := eval.Fig7(r)
		if err != nil {
			b.Fatal(err)
		}
		f.Boost() // Figure 8
	}
}

// --------------------------------------------------------------- Table 2 --

func BenchmarkTable2aCoreOccupation(b *testing.B) {
	r := runner(b)
	f, err := eval.Fig7(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2a := eval.Table2a(r, f)
		if len(t2a.N) != 16 {
			b.Fatal("bad ladder")
		}
	}
}

func BenchmarkTable2bPerformance(b *testing.B) {
	r := runner(b)
	if _, err := eval.Table2b(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table2b(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- Figure 9 --

func BenchmarkFig9aSavingsVsSPF(b *testing.B) {
	r := runner(b)
	f, err := eval.Fig7(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Fig9a(r, f)
	}
}

func BenchmarkFig9bSavingsPerBench(b *testing.B) {
	r := runner(b)
	if _, err := eval.Fig9b(r); err != nil { // trains all 10 models once
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Fig9b(r); err != nil {
			b.Fatal(err)
		}
	}
}

// --------------------------------------------------------------- Table 3 --

func BenchmarkTable3Benches(b *testing.B) {
	r := runner(b)
	if _, err := eval.Table3(r); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eval.Table3(r); err != nil {
			b.Fatal(err)
		}
	}
}

// -------------------------------------------------------------- Ablations --

func BenchmarkAblationMapping(b *testing.B) {
	r := runner(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eval.AblationMapping(r)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.CountsAgree {
			b.Fatal("mappings diverged")
		}
	}
}

// ------------------------------------------------- substrate micro-benches --

// BenchmarkDeployFrame measures one spike-domain classification frame of the
// bench-1 network (4 cores, 256x256), the inner loop of every surface.
func BenchmarkDeployFrame(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	fs := sn.NewFrameScratch()
	src := rng.NewPCG32(2, 2)
	counts := make([]int64, 10)
	x := make([]float64, 28*28)
	copy(x, test.X[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Frame(fs, x, 1, src, counts)
	}
}

// BenchmarkDeployFrameSPF2 is BenchmarkDeployFrame at 2 spikes per frame:
// the frame's compiled spike code is drawn twice, as on every multi-tick
// surface cell and served request.
func BenchmarkDeployFrameSPF2(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	fs := sn.NewFrameScratch()
	src := rng.NewPCG32(2, 2)
	counts := make([]int64, 10)
	x := make([]float64, 28*28)
	copy(x, test.X[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sn.Frame(fs, x, 2, src, counts)
	}
}

// BenchmarkSurfaceEvaluate measures deploy.Surface end-to-end on a 4x2 grid
// of the bench-1 model — the engine-backed hot path behind Figure 7, Table 2
// and every Evaluate call.
func BenchmarkSurfaceEvaluate(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	cfg := deploy.EvalConfig{Repeats: 2, Limit: 200, Seed: 5, Sample: deploy.DefaultSampleConfig()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deploy.Surface(m.Net, test, 4, 2, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineClassifyFast measures batched fast-path classification
// through the shared inference engine (one sampled copy, 1 spf).
func BenchmarkEngineClassifyFast(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	eng := engine.New(&deploy.FastPredictor{Net: sn}, engine.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Classify(test.X[:200], 1, rng.NewPCG32(uint64(i), 2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineClassifyConf measures confidence-gated adaptive ensemble
// classification on the bench-1 biased model (16 sampled copies, 2 spf): the
// exact full-budget vote against early-exit thresholds, reporting the mean
// copies each item actually evaluated. Speedup comes from the
// gate alone — both sub-benchmarks share the ensemble, engine, and items.
func BenchmarkEngineClassifyConf(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "biased")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	const copies, spf = 16, 2
	plan := deploy.CompileQuant(m.Net)
	ens := deploy.NewSeededEnsemble(plan, copies, 1, 40, deploy.DefaultSampleConfig())
	eng := engine.New(ens, engine.Config{})
	n := 200
	if test.Len() < n {
		n = test.Len()
	}
	for _, sub := range []struct {
		name string
		conf float64
	}{{"exact", 0}, {"conf99", 0.99}} {
		b.Run(sub.name, func(b *testing.B) {
			items := make([]engine.Item, n)
			for i := range items {
				is := uint64(i)
				items[i] = engine.Item{X: test.X[i], SPF: spf, Copies: copies, Conf: sub.conf,
					Seed: func(dst *rng.PCG32) { dst.Seed(9, is) }}
			}
			if _, err := eng.ClassifyItems(items); err != nil { // materialize all copies
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var used int64
			for i := 0; i < b.N; i++ {
				outs, err := eng.ClassifyItems(items)
				if err != nil {
					b.Fatal(err)
				}
				for _, o := range outs {
					used += int64(o.CopiesUsed)
				}
			}
			b.ReportMetric(float64(used)/float64(b.N*n), "copies/item")
		})
	}
}

// BenchmarkEngineClassifyChip measures the cycle-accurate chip path through
// the engine: every worker simulates a private 4-core chip.
func BenchmarkEngineClassifyChip(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	cp, err := deploy.NewChipPredictor([]*deploy.SampledNet{sn}, deploy.MapSigned, 3)
	if err != nil {
		b.Fatal(err)
	}
	eng := engine.New(cp, engine.Config{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Classify(test.X[:50], 1, rng.NewPCG32(uint64(i), 4)); err != nil {
			b.Fatal(err)
		}
	}
}

// chipFrameFixture lowers the bench-1 model onto a chip and returns the net
// plus one test input for per-frame chip benchmarks.
func chipFrameFixture(b *testing.B) (*deploy.ChipNet, []float64) {
	b.Helper()
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	cn, err := deploy.BuildChip(sn, deploy.MapSigned, 3)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 28*28)
	copy(x, test.X[0])
	return cn, x
}

// BenchmarkChipDeployFrame measures one cycle-accurate classification frame
// on the lowered bench-1 chip (4 cores, 4 spf) under the event-driven
// simulator — the chip-path sibling of BenchmarkDeployFrame.
func BenchmarkChipDeployFrame(b *testing.B) {
	cn, x := chipFrameFixture(b)
	src := rng.NewPCG32(2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cn.Frame(x, 4, src)
	}
}

// BenchmarkChipDeployFrameDense is the dense-reference baseline for
// BenchmarkChipDeployFrame: the identical frame through Chip.TickDense.
func BenchmarkChipDeployFrameDense(b *testing.B) {
	cn, x := chipFrameFixture(b)
	src := rng.NewPCG32(2, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cn.FrameDense(x, 4, src)
	}
}

// BenchmarkChipEnsembleFrame measures one classification frame (4 spf) on a
// shared chip hosting 64 sampled copies of the bench-1 biased model — 256
// cores under annealed placement with NoC accounting — the shape of
// perfbench's chip workload. Each frame reseeds the chip and the input
// stream from its index, as perfbench does. This chip is large enough for
// Chip.Tick to split core evaluation across goroutines.
func BenchmarkChipEnsembleFrame(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "biased")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	plan := deploy.CompileQuant(m.Net)
	root := rng.NewPCG32(5, 13)
	nets := make([]*deploy.SampledNet, 64)
	for c := range nets {
		nets[c] = plan.Sample(root.Split(uint64(c)), deploy.DefaultSampleConfig())
	}
	cn, err := deploy.BuildChipEnsemblePlaced(nets, deploy.MapSigned, 5, deploy.PlacerAnneal)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.NewPCG32(0, 0)
	cn.Frame(test.X[0], 4, src) // compile the chip's plans outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % test.Len()
		cn.Chip.Reseed(rng.SplitMix64(5 + uint64(k)))
		src.Seed(5, 31+uint64(k))
		cn.Frame(test.X[k], 4, src)
	}
}

// BenchmarkSampleCopy measures copy-sampling throughput from a precompiled
// QuantPlan — the repeats*copies inner loop of every deployment surface.
func BenchmarkSampleCopy(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	plan := deploy.CompileQuant(m.Net)
	src := rng.NewPCG32(3, 3)
	cfg := deploy.DefaultSampleConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sn := plan.Sample(src, cfg); sn.NumCores() == 0 {
			b.Fatal("empty copy")
		}
	}
}

// BenchmarkEncodeInput measures input spike encoding (Eq. 8) of one frame
// of a bench-1 digit: tick 0 compiles the frame's spike code, later ticks
// replay it. spf=1 is a compile and one draw per frame; spf=4 amortizes the
// compile over four draws.
func BenchmarkEncodeInput(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	m, err := r.Model(bench, "none")
	if err != nil {
		b.Fatal(err)
	}
	_, test := r.Data(bench)
	sn := deploy.Sample(m.Net, rng.NewPCG32(1, 1), deploy.DefaultSampleConfig())
	x := make([]float64, 28*28)
	copy(x, test.X[0])
	for _, spf := range []int{1, 4} {
		b.Run(fmt.Sprintf("spf=%d", spf), func(b *testing.B) {
			fs := sn.NewFrameScratch()
			src := rng.NewPCG32(2, 2)
			b.ReportAllocs()
			for b.Loop() {
				for t := 0; t < spf; t++ {
					sn.EncodeFrameTick(fs, x, t, src)
				}
			}
		})
	}
}

// trainEpochFixture builds the standalone bench-1 training workload shared by
// the SGD-loop benchmarks: 1024 synthetic digits and a freshly initialized
// bench-1 network. It deliberately avoids runner(b) so the CI benchmark smoke
// (-bench=BenchmarkTrainEpoch -benchtime=1x) never trains fixture models.
func trainEpochFixture(b *testing.B) (*nn.Network, *dataset.Dataset) {
	b.Helper()
	bench, _ := eval.BenchByID(1)
	dcfg := digits.Config{Train: 1024, Test: 16, Seed: 7, Jitter: 1, Noise: 0.06}
	train, _ := digits.Generate(dcfg)
	net, err := bench.Arch.Build(rng.NewPCG32(1, 1), 1)
	if err != nil {
		b.Fatal(err)
	}
	return net, train
}

// BenchmarkTrainEpoch measures one full SGD epoch of the paper's learning
// method on the bench-1 architecture (1024 samples, batch 32, 8 workers) —
// the training hot loop behind every Table 1 / Figure 7 model.
func BenchmarkTrainEpoch(b *testing.B) {
	net, train := trainEpochFixture(b)
	cfg := nn.TrainConfig{Epochs: 1, Batch: 32, LR: 0.1, Momentum: 0.9, Seed: 1, Workers: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(net, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainEpochBiased is BenchmarkTrainEpoch under the paper's
// biased penalty (Eq. 17) with perfbench's trainer settings: lambda 0.0005
// from the first step and 2 workers, so the penalty's per-weight update
// runs on every batch.
func BenchmarkTrainEpochBiased(b *testing.B) {
	net, train := trainEpochFixture(b)
	cfg := nn.TrainConfig{Epochs: 1, Batch: 32, LR: 0.1, Momentum: 0.9, Seed: 1, Workers: 2,
		Lambda: 0.0005, Penalty: nn.NewBiasedPenalty()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(net, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures expectation-model ("Caffe") accuracy evaluation
// on the bench-1 network — the float-accuracy pass run after every training.
func BenchmarkEvaluate(b *testing.B) {
	net, train := trainEpochFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if acc := nn.Evaluate(net, train, 8); acc < 0 {
			b.Fatal("bad accuracy")
		}
	}
}

// BenchmarkTrainEpochMLP measures one SGD epoch of the dense 784-300-100-10
// MLP baseline (section 3.3) on the same 1024-sample corpus.
func BenchmarkTrainEpochMLP(b *testing.B) {
	_, train := trainEpochFixture(b)
	m := nn.NewMLP(rng.NewPCG32(2, 2), 784, 300, 100, 10)
	cfg := nn.MLPTrainConfig{Epochs: 1, Batch: 32, LR: 0.05, Momentum: 0.9, Seed: 1, Workers: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nn.TrainMLP(m, train, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainingStep measures one bench-1 minibatch SGD step (32 samples
// through Eq. 9/14/11 forward and the full-variance backward).
func BenchmarkTrainingStep(b *testing.B) {
	r := runner(b)
	bench, _ := eval.BenchByID(1)
	train, _ := r.Data(bench)
	net, err := bench.Arch.Build(rng.NewPCG32(1, 1), 1)
	if err != nil {
		b.Fatal(err)
	}
	sub := train.Subset(32)
	cfg := nn.TrainConfig{Epochs: 1, Batch: 32, LR: 0.1, Momentum: 0.9, Seed: 1, Workers: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nn.Train(net, sub, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

package nn

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// blobs builds a linearly separable 2-class dataset on an 8x8 grid: class 0
// lights the left half, class 1 the right half, with noise.
func blobs(n int, seed uint64) *dataset.Dataset {
	src := rng.NewPCG32(seed, 3)
	d := &dataset.Dataset{
		Name: "blobs", FeatDim: 64, NumClasses: 2, Height: 8, Width: 8,
		X: make([][]float64, n), Y: make([]int, n),
	}
	for i := 0; i < n; i++ {
		y := i % 2
		x := make([]float64, 64)
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				base := 0.08
				if (y == 0 && c < 4) || (y == 1 && c >= 4) {
					base = 0.85
				}
				v := base + (rng.Float64(src)-0.5)*0.15
				if v < 0 {
					v = 0
				} else if v > 1 {
					v = 1
				}
				x[r*8+c] = v
			}
		}
		d.X[i] = x
		d.Y[i] = y
	}
	return d
}

// blobArch is a single-layer, 4-core architecture on the 8x8 grid.
func blobArch() *Arch {
	return &Arch{
		Name: "blob-test", InputH: 8, InputW: 8, Block: 4, Stride: 4,
		CoreSize: 16, Classes: 2, Tau: 8, InitScale: 0.3,
	}
}

func TestArchValidate(t *testing.T) {
	a := blobArch()
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *a
	bad.Block = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("block larger than input accepted")
	}
	bad = *a
	bad.Block = 5 // 25 > 16 axons
	if err := bad.Validate(); err == nil {
		t.Fatal("block exceeding core size accepted")
	}
	bad = *a
	bad.Windows = []Window{{Size: 5, Stride: 1}}
	if err := bad.Validate(); err == nil {
		t.Fatal("oversized window accepted")
	}
}

func TestArchPaperBenchGeometometry(t *testing.T) {
	// Bench 3 of Table 3: MNIST stride 2, layers 49~9~4.
	a := &Arch{
		Name: "bench3", InputH: 28, InputW: 28, Block: 16, Stride: 2,
		CoreSize: 256, Classes: 10,
		Windows: []Window{{Size: 3, Stride: 2}, {Size: 2, Stride: 1}},
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	cores := a.CoresPerLayer()
	if len(cores) != 3 || cores[0] != 49 || cores[1] != 9 || cores[2] != 4 {
		t.Fatalf("cores per layer %v, want [49 9 4]", cores)
	}
	if a.TotalCores() != 62 {
		t.Fatalf("total cores %d", a.TotalCores())
	}
}

func TestArchBuildWiring(t *testing.T) {
	a := &Arch{
		Name: "deep", InputH: 8, InputW: 8, Block: 4, Stride: 2,
		CoreSize: 16, Classes: 2, Tau: 4,
		Windows: []Window{{Size: 2, Stride: 1}},
	}
	net, err := a.Build(rng.NewPCG32(1, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Layers) != 2 {
		t.Fatalf("%d layers", len(net.Layers))
	}
	// First layer: 3x3 = 9 cores, exports 16/4 = 4 each.
	if len(net.Layers[0].Cores) != 9 {
		t.Fatalf("layer0 cores %d", len(net.Layers[0].Cores))
	}
	if net.Layers[0].Cores[0].Exports != 4 || net.Layers[0].Cores[0].Neurons() != 4 {
		t.Fatalf("layer0 exports/neurons %d/%d", net.Layers[0].Cores[0].Exports, net.Layers[0].Cores[0].Neurons())
	}
	// Second (final) layer: 2x2 = 4 cores reading 2x2 windows * 4 exports = 16 axons,
	// with the full 16 neurons exported to the readout.
	if len(net.Layers[1].Cores) != 4 {
		t.Fatalf("layer1 cores %d", len(net.Layers[1].Cores))
	}
	c := net.Layers[1].Cores[0]
	if c.Axons() != 16 || c.Neurons() != 16 || c.Exports != 16 {
		t.Fatalf("layer1 core: axons %d neurons %d exports %d", c.Axons(), c.Neurons(), c.Exports)
	}
	// Window (0,0) of a 3x3 grid with exports 4 covers cores 0,1,3,4.
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 12, 13, 14, 15, 16, 17, 18, 19}
	for i, w := range want {
		if c.In[i] != w {
			t.Fatalf("layer1 core0 In = %v, want %v", c.In, want)
		}
	}
}

func TestTrainLearnsBlobs(t *testing.T) {
	train := blobs(400, 1)
	test := blobs(200, 2)
	net, err := blobArch().Build(rng.NewPCG32(5, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := TrainConfig{
		Epochs: 8, Batch: 16, LR: 0.15, Momentum: 0.9, LRDecay: 0.9,
		Penalty: NonePenalty{}, Seed: 42, Workers: 4,
	}
	loss, err := Train(net, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) {
		t.Fatal("training loss is NaN")
	}
	acc := Evaluate(net, test, 4)
	if acc < 0.9 {
		t.Fatalf("test accuracy %.3f on separable blobs; training failed", acc)
	}
}

func TestTrainDeterministicGivenSeedSingleWorker(t *testing.T) {
	// With one worker the gradient merge order is fixed, so training must be
	// bit-reproducible.
	run := func() []float64 {
		net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
		cfg := TrainConfig{Epochs: 2, Batch: 8, LR: 0.1, Momentum: 0.9,
			Penalty: NonePenalty{}, Seed: 7, Workers: 1}
		if _, err := Train(net, blobs(60, 3), cfg); err != nil {
			panic(err)
		}
		return net.Weights()
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("weight %d differs across identical runs", i)
		}
	}
}

func TestTrainRejectsEmptyDataset(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
	empty := &dataset.Dataset{Name: "empty", FeatDim: 64, NumClasses: 2, Height: 8, Width: 8}
	cfg := TrainConfig{Epochs: 10, Batch: 32, LR: 0.1, Momentum: 0.9, LRDecay: 0.85, Penalty: NonePenalty{}, Seed: 1}
	if _, err := Train(net, empty, cfg); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

// TestTrainRejectsWiderDataset: an input wider than the network is an error
// from Train and a panic from Evaluate, with the same text deploy reports.
// Truncating it would train and score on a silently cropped input.
func TestTrainRejectsWiderDataset(t *testing.T) {
	wide := blobs(40, 3)
	for i, x := range wide.X {
		wide.X[i] = append(x, 0.5, 0.5, 0.5)
	}
	wide.FeatDim = 67
	const want = "input 0 has 67 features, network takes 64"
	net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
	before := net.Weights()
	cfg := TrainConfig{Epochs: 1, Batch: 8, LR: 0.1, Momentum: 0.9, LRDecay: 0.9, Penalty: NonePenalty{}, Seed: 7, Workers: 2}
	_, err := Train(net, wide, cfg)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Train error %v, want one containing %q", err, want)
	}
	for i, w := range net.Weights() {
		if !sameBits(w, before[i]) {
			t.Fatalf("parameter %d changed by a rejected run", i)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
			t.Fatalf("Evaluate panic %v, want one containing %q", r, want)
		}
	}()
	Evaluate(net, wide, 1)
}

// TestTrainRejectsBadConfig: settings Train and TrainMLP cannot run return an
// error before any work, instead of panicking inside the batcher or training
// the weights into NaN, and leave the network untouched.
func TestTrainRejectsBadConfig(t *testing.T) {
	good := TrainConfig{Epochs: 1, Batch: 8, LR: 0.1, Momentum: 0.9, LRDecay: 0.9, Lambda: 0.001,
		Penalty: NewBiasedPenalty(), Seed: 7, Workers: 2}
	mlpConfig := func(c TrainConfig) MLPTrainConfig {
		return MLPTrainConfig{Epochs: c.Epochs, Batch: c.Batch, LR: c.LR, Momentum: c.Momentum,
			LRDecay: c.LRDecay, Lambda: c.Lambda, Seed: c.Seed, Workers: c.Workers}
	}
	mlpParams := func(m *MLP) []float64 {
		var v []float64
		for l, w := range m.W {
			v = append(append(v, w.Data...), m.B[l]...)
		}
		return v
	}
	unchanged := func(t *testing.T, trainer string, got, before []float64) {
		t.Helper()
		for i, w := range got {
			if !sameBits(w, before[i]) {
				t.Fatalf("%s: parameter %d changed by a rejected run", trainer, i)
			}
		}
	}
	for _, tc := range []struct {
		name string
		bad  func(*TrainConfig)
	}{
		{"zero batch", func(c *TrainConfig) { c.Batch = 0 }},
		{"negative batch", func(c *TrainConfig) { c.Batch = -8 }},
		{"negative epochs", func(c *TrainConfig) { c.Epochs = -1 }},
		{"NaN learning rate", func(c *TrainConfig) { c.LR = math.NaN() }},
		{"infinite learning rate", func(c *TrainConfig) { c.LR = math.Inf(1) }},
		{"NaN momentum", func(c *TrainConfig) { c.Momentum = math.NaN() }},
		{"infinite momentum", func(c *TrainConfig) { c.Momentum = math.Inf(-1) }},
		{"NaN rate decay", func(c *TrainConfig) { c.LRDecay = math.NaN() }},
		{"infinite rate decay", func(c *TrainConfig) { c.LRDecay = math.Inf(1) }},
		{"NaN lambda", func(c *TrainConfig) { c.Lambda = math.NaN() }},
		{"infinite lambda", func(c *TrainConfig) { c.Lambda = math.Inf(1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good
			tc.bad(&cfg)
			net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
			before := net.Weights()
			if _, err := Train(net, blobs(40, 3), cfg); err == nil {
				t.Fatal("Train accepted")
			}
			unchanged(t, "Train", net.Weights(), before)
			m := NewMLP(rng.NewPCG32(2, 2), 64, 16, 2)
			before = mlpParams(m)
			if err := TrainMLP(m, blobs(40, 3), mlpConfig(cfg)); err == nil {
				t.Fatal("TrainMLP accepted")
			}
			unchanged(t, "TrainMLP", mlpParams(m), before)
		})
	}
	net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
	if _, err := Train(net, blobs(40, 3), good); err != nil {
		t.Fatalf("base config rejected by Train: %v", err)
	}
	if err := TrainMLP(NewMLP(rng.NewPCG32(2, 2), 64, 16, 2), blobs(40, 3), mlpConfig(good)); err != nil {
		t.Fatalf("base config rejected by TrainMLP: %v", err)
	}
}

func TestTrainProgressCallback(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
	epochs := 0
	cfg := TrainConfig{Epochs: 3, Batch: 16, LR: 0.05, Momentum: 0.5,
		Penalty: NonePenalty{}, Seed: 7, Workers: 2,
		Progress: func(e int, loss, acc float64) {
			epochs++
			if loss < 0 || acc < 0 || acc > 1 {
				t.Errorf("bad telemetry: loss %v acc %v", loss, acc)
			}
		}}
	if _, err := Train(net, blobs(60, 3), cfg); err != nil {
		t.Fatal(err)
	}
	if epochs != 3 {
		t.Fatalf("progress called %d times", epochs)
	}
}

func TestBiasedTrainingDrivesProbabilitiesToPoles(t *testing.T) {
	train := blobs(300, 4)
	net, _ := blobArch().Build(rng.NewPCG32(6, 6), 1)
	cfg := TrainConfig{
		Epochs: 12, Batch: 16, LR: 0.15, Momentum: 0.9, LRDecay: 0.95,
		Lambda: 0.003, Penalty: NewBiasedPenalty(), Seed: 9, Workers: 4,
	}
	if _, err := Train(net, train, cfg); err != nil {
		t.Fatal(err)
	}
	probs := net.Probabilities()
	polar := 0
	for _, p := range probs {
		if p < 0.1 || p > 0.9 {
			polar++
		}
	}
	frac := float64(polar) / float64(len(probs))
	if frac < 0.8 {
		t.Fatalf("only %.0f%% of probabilities near poles; biasing ineffective", frac*100)
	}
	// And the mean biased penalty must be small.
	pen, total := NewBiasedPenalty(), 0.0
	w := net.Weights()
	for _, wi := range w {
		total += pen.Value(wi, net.CMax)
	}
	if v := total / float64(len(w)); v > 0.08 {
		t.Fatalf("mean biased penalty %v still high", v)
	}
}

func TestL1TrainingShrinksWeights(t *testing.T) {
	train := blobs(300, 4)
	mkNet := func() *Network {
		n, _ := blobArch().Build(rng.NewPCG32(6, 6), 1)
		return n
	}
	base := mkNet()
	cfgBase := TrainConfig{Epochs: 8, Batch: 16, LR: 0.1, Momentum: 0.9,
		Penalty: NonePenalty{}, Seed: 9, Workers: 4}
	if _, err := Train(base, train, cfgBase); err != nil {
		t.Fatal(err)
	}
	l1 := mkNet()
	cfgL1 := cfgBase
	cfgL1.Lambda = 0.01
	cfgL1.Penalty = L1Penalty{}
	if _, err := Train(l1, train, cfgL1); err != nil {
		t.Fatal(err)
	}
	meanAbs := func(ws []float64) float64 {
		s := 0.0
		for _, w := range ws {
			s += math.Abs(w)
		}
		return s / float64(len(ws))
	}
	if meanAbs(l1.Weights()) >= meanAbs(base.Weights()) {
		t.Fatalf("L1 did not shrink weights: %v vs %v", meanAbs(l1.Weights()), meanAbs(base.Weights()))
	}
}

func TestWeightsStayClampedDuringTraining(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(6, 6), 1)
	cfg := TrainConfig{Epochs: 5, Batch: 8, LR: 0.8, Momentum: 0.9, // aggressive LR
		Penalty: NewBiasedPenalty(), Lambda: 0.01, Seed: 9, Workers: 2}
	if _, err := Train(net, blobs(100, 5), cfg); err != nil {
		t.Fatal(err)
	}
	for _, w := range net.Weights() {
		if w < -1 || w > 1 {
			t.Fatalf("weight %v escaped [-1,1]", w)
		}
	}
}

func TestEvaluateEmptyDataset(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(5, 5), 1)
	empty := &dataset.Dataset{Name: "empty", FeatDim: 64, NumClasses: 2, Height: 8, Width: 8}
	if acc := Evaluate(net, empty, 2); acc != 0 {
		t.Fatalf("accuracy %v on empty set", acc)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(11, 11), 1)
	if _, err := Train(net, blobs(50, 6), TrainConfig{Epochs: 1, Batch: 8, LR: 0.1,
		Momentum: 0.9, Penalty: NonePenalty{}, Seed: 3, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := net.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	aw, bw := net.Weights(), got.Weights()
	for i := range aw {
		if aw[i] != bw[i] {
			t.Fatalf("weight %d changed by round trip", i)
		}
	}
	if got.Readout.Classes != net.Readout.Classes || got.Readout.Tau != net.Readout.Tau {
		t.Fatal("readout metadata lost")
	}
	// Same predictions.
	x := blobs(1, 7).X[0]
	a, b := net.Predict(x), got.Predict(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatal("round-tripped model predicts differently")
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	net, _ := blobArch().Build(rng.NewPCG32(11, 11), 1)
	path := t.TempDir() + "/model.json"
	if err := net.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumWeights() != net.NumWeights() {
		t.Fatal("weight count changed")
	}
}

func TestReadRejectsCorrupt(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("{not json")); err == nil {
		t.Fatal("corrupt JSON accepted")
	}
	if _, err := Read(bytes.NewBufferString(`{"cmax":1,"layers":[{"in_dim":2,"cores":[{"in":[0],"rows":2,"cols":2,"w":[1],"bias":[0,0],"exports":1}]}]}`)); err == nil {
		t.Fatal("inconsistent weight count accepted")
	}
}

func TestMLPLearnsBlobs(t *testing.T) {
	train := blobs(400, 8)
	test := blobs(200, 9)
	m := NewMLP(rng.NewPCG32(2, 2), 64, 16, 2)
	cfg := MLPTrainConfig{Epochs: 6, Batch: 16, LR: 0.1, Momentum: 0.9, Seed: 1, Workers: 4}
	if err := TrainMLP(m, train, cfg); err != nil {
		t.Fatal(err)
	}
	if acc := EvaluateMLP(m, test); acc < 0.9 {
		t.Fatalf("MLP accuracy %.3f", acc)
	}
}

func TestMLPL1IncreasesZeroFraction(t *testing.T) {
	train := blobs(300, 10)
	run := func(lambda float64) []float64 {
		m := NewMLP(rng.NewPCG32(2, 2), 64, 16, 2)
		cfg := MLPTrainConfig{Epochs: 8, Batch: 16, LR: 0.1, Momentum: 0.9,
			Lambda: lambda, Seed: 1, Workers: 2}
		if err := TrainMLP(m, train, cfg); err != nil {
			t.Fatal(err)
		}
		return m.ZeroFractions(0.01)
	}
	base := run(0)
	l1 := run(0.001)
	if l1[0] <= base[0] {
		t.Fatalf("L1 zero fraction %v not above baseline %v", l1, base)
	}
}

func TestMLPPruneBelow(t *testing.T) {
	m := NewMLP(rng.NewPCG32(3, 3), 4, 3, 2)
	m.W[0].Data[0] = 0.001
	m.W[0].Data[1] = 0.9
	m.PruneBelow(0.01)
	if m.W[0].Data[0] != 0 {
		t.Fatal("small weight not pruned")
	}
	if m.W[0].Data[1] != 0.9 {
		t.Fatal("large weight pruned")
	}
}

func TestMLPGradientNumeric(t *testing.T) {
	m := NewMLP(rng.NewPCG32(4, 4), 5, 4, 3)
	x := []float64{0.2, 0.8, 0.1, 0.5, 0.9}
	y := 2
	acts := m.newActs()
	deltas := make([][]float64, len(acts))
	for i := range acts {
		deltas[i] = make([]float64, len(acts[i]))
	}
	probs := make([]float64, 3)
	gW := make([]*tensor.Matrix, len(m.W))
	gB := make([][]float64, len(m.W))
	for l, w := range m.W {
		gW[l] = tensor.New(w.Rows, w.Cols)
		gB[l] = make([]float64, w.Rows)
	}
	m.backpropOne(acts, deltas, probs, gW, gB, x, y)

	loss := func() float64 {
		logits := m.Predict(x)
		p := make([]float64, len(logits))
		tensor.Softmax(p, logits)
		return -math.Log(p[y])
	}
	const h = 1e-5
	for l, w := range m.W {
		for i := range w.Data {
			orig := w.Data[i]
			w.Data[i] = orig + h
			lp := loss()
			w.Data[i] = orig - h
			lm := loss()
			w.Data[i] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-gW[l].Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d weight %d: analytic %v vs numeric %v", l, i, gW[l].Data[i], num)
			}
		}
		for j := range m.B[l] {
			orig := m.B[l][j]
			m.B[l][j] = orig + h
			lp := loss()
			m.B[l][j] = orig - h
			lm := loss()
			m.B[l][j] = orig
			num := (lp - lm) / (2 * h)
			if math.Abs(num-gB[l][j]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d bias %d: analytic %v vs numeric %v", l, j, gB[l][j], num)
			}
		}
	}
}

package main

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/rng"
)

// The surface op: the accuracy grid of 1-4 copies x 1-2 spf, 2 repeats.
const surfaceCopies, surfaceSPF, surfaceRepeats = 4, 2, 2

// surfaceWL runs deploy.Surface on held-out digits, the inner loop of the
// paper's Fig. 7 and Table 2. Every op is the same call on the same digits,
// so every op must return the grid the check pass fixed.
type surfaceWL struct {
	net  *nn.Network
	test *dataset.Dataset // every held-out digit: the accuracy set
	ops  *dataset.Dataset // the digits one op classifies
	cfg  deploy.EvalConfig
	want [][]float64
}

func newSurface(cfg config, lt map[string]float64) (workload, error) {
	m, test, err := prepare(cfg, lt)
	if err != nil {
		return nil, err
	}
	return &surfaceWL{net: m.Net, test: test, ops: test.Subset(cfg.size.surfaceItems), cfg: deploy.EvalConfig{
		Repeats: surfaceRepeats, Seed: rng.SplitMix64(cfg.seed), Sample: deploy.DefaultSampleConfig(),
	}}, nil
}

func (w *surfaceWL) surface(d *dataset.Dataset) ([][]float64, error) {
	res, err := deploy.Surface(w.net, d, surfaceCopies, surfaceSPF, w.cfg)
	if err != nil {
		return nil, err
	}
	return res.Mean, nil
}

// twin is Surface rebuilt from the public calls it makes — CompileQuant,
// QuantPlan.Sample and engine.Grid, in Surface's order and with its streams
// — timing each call as a span of op.
func (w *surfaceWL) twin(tr *tracer, op int) ([][]float64, error) {
	n := w.ops.Len()
	start := time.Now()
	plan := deploy.CompileQuant(w.net)
	tr.add("deploy.compile", op, start)
	root := rng.NewPCG32(w.cfg.Seed, 11)
	accs := make([][][]float64, surfaceRepeats)
	for rep := range accs {
		repSrc := root.Split(uint64(rep))
		preds := make([]engine.TickPredictor, surfaceCopies)
		for c := range preds {
			start := time.Now()
			preds[c] = &deploy.FastPredictor{Net: plan.Sample(repSrc.Split(uint64(c)), w.cfg.Sample)}
			tr.add("deploy.sample", op, start)
		}
		start := time.Now()
		correct, err := engine.Grid(preds, w.ops.X, w.ops.Y, surfaceSPF, repSrc.Split(1<<32), engine.Config{Workers: w.cfg.Workers})
		tr.add("engine.grid", op, start)
		if err != nil {
			return nil, err
		}
		accs[rep] = engine.NewGrid(surfaceCopies, surfaceSPF)
		for c := range correct {
			for s := range correct[c] {
				accs[rep][c][s] = float64(correct[c][s]) / float64(n)
			}
		}
	}
	mean := engine.NewGrid(surfaceCopies, surfaceSPF)
	samples := make([]float64, surfaceRepeats)
	for c := range mean {
		for s := range mean[c] {
			for rep := range accs {
				samples[rep] = accs[rep][c][s]
			}
			mean[c][s], _ = engine.MeanStd(samples)
		}
	}
	return mean, nil
}

func equalGrid(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

func (w *surfaceWL) check(r *result) error {
	all, err := w.surface(w.test)
	if err != nil {
		return err
	}
	got, err := w.surface(w.ops)
	if err != nil {
		return err
	}
	twin, err := w.twin(nil, 0)
	if err != nil {
		return err
	}
	if !equalGrid(twin, got) {
		r.problem("surface: twin grid %v differs from Surface grid %v", twin, got)
	}
	chance := 1 / float64(w.test.NumClasses)
	one, full := all[0][0], all[surfaceCopies-1][surfaceSPF-1]
	if full < one || full <= chance {
		r.problem("surface: (4,2) cell %.4f must be >= (1,1) cell %.4f and above chance %.2f", full, one, chance)
	}
	w.want = got
	r.e2e["accuracy"] = full
	r.diag["grid"] = all
	r.layers["deploy.samples_per_op"] = surfaceRepeats * surfaceCopies
	r.layers["engine.copies_per_item"] = surfaceCopies
	return nil
}

// measure runs Surface, or its traced twin when tr is set.
func (w *surfaceWL) measure(until time.Time, tr *tracer) (phase, error) {
	return loop(until, func(i int) (int, error) {
		var got [][]float64
		var err error
		if tr == nil {
			got, err = w.surface(w.ops)
		} else {
			start := time.Now()
			got, err = w.twin(tr, i)
			tr.add("op", i, start)
		}
		if err != nil {
			return 0, err
		}
		if !equalGrid(got, w.want) {
			return w.ops.Len(), fmt.Errorf("%w: op %d grid %v, want %v", errWrong, i, got, w.want)
		}
		return w.ops.Len(), nil
	})
}

func (w *surfaceWL) layers(r *result, tr *tracer) error {
	ops, compile, sample, grid := tr.named("op"), tr.named("deploy.compile"), tr.named("deploy.sample"), tr.named("engine.grid")
	if len(ops) == 0 {
		return fmt.Errorf("no traced surface ops")
	}
	r.layers["deploy.compile_ms"] = median(msOf(compile))
	r.layers["deploy.sample_ms"] = median(msOf(sample))
	var gridPerOp []float64
	for _, v := range perOpMS(grid) {
		gridPerOp = append(gridPerOp, v)
	}
	r.layers["engine.grid_ms"] = median(gridPerOp)
	frames := float64(len(grid) * w.ops.Len() * surfaceCopies * surfaceSPF)
	r.layers["engine.ns_per_frame"] = sumMS(grid) * 1e6 / frames
	children := perOpMS(append(append(compile, sample...), grid...))
	r.layers["trace.unattributed_frac"] = unattributed(ops, children)
	return nil
}

func (w *surfaceWL) close() {}

package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

const (
	chipSPF = 4
	// chipFrameStream labels the input spike stream of frame i.
	chipFrameStream = 31
	// denseRounds repeats the event-vs-dense timing of the traced run.
	denseRounds = 3
)

// chipWL classifies one held-out digit per op on one simulated chip that
// hosts every sampled copy (deploy.BuildChipEnsemblePlaced, annealed
// placement, NoC accounting attached). Each frame reseeds the chip and its
// input stream from the digit's index, so a digit's counts never depend on
// the frames before it and every op must repeat the check pass exactly.
type chipWL struct {
	cn    *deploy.ChipNet
	test  *dataset.Dataset
	seed  uint64
	src   *rng.PCG32
	dense int
	want  [][]int64         // per digit, from the check pass
	stats []truenorth.Stats // per digit, from the check pass
}

func newChip(cfg config, lt map[string]float64) (workload, error) {
	m, test, err := prepare(cfg, lt)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	plan := deploy.CompileQuant(m.Net)
	lt["deploy.compile_ms"] = ms(start)
	root := rng.NewPCG32(cfg.seed, 13)
	nets := make([]*deploy.SampledNet, cfg.size.chipCopies)
	start = time.Now()
	for c := range nets {
		nets[c] = plan.Sample(root.Split(uint64(c)), deploy.DefaultSampleConfig())
	}
	lt["deploy.sample_ms"] = ms(start) / float64(len(nets))
	start = time.Now()
	cn, err := deploy.BuildChipEnsemblePlaced(nets, deploy.MapSigned, cfg.seed, deploy.PlacerAnneal)
	if err != nil {
		return nil, err
	}
	lt["deploy.chip_build_s"] = seconds(start)
	return &chipWL{cn: cn, test: test.Subset(cfg.size.chipItems), seed: cfg.seed, src: rng.NewPCG32(0, 0), dense: cfg.size.denseFrames}, nil
}

// frame classifies digit i, on the dense reference simulator when dense is
// set, recording the Frame call as a span of op.
func (w *chipWL) frame(i int, dense bool, tr *tracer, op int) []int64 {
	w.cn.Chip.Reseed(rng.SplitMix64(w.seed + uint64(i)))
	w.src.Seed(w.seed, chipFrameStream+uint64(i))
	start := time.Now()
	defer tr.add("deploy.chip_frame", op, start)
	if dense {
		return w.cn.FrameDense(w.test.X[i], chipSPF, w.src)
	}
	return w.cn.Frame(w.test.X[i], chipSPF, w.src)
}

func (w *chipWL) check(r *result) error {
	n := w.test.Len()
	w.want = make([][]int64, n)
	w.stats = make([]truenorth.Stats, n)
	var total truenorth.Stats
	var hops int64
	correct := 0
	for i := 0; i < n; i++ {
		w.want[i] = w.frame(i, false, nil, 0)
		w.stats[i] = w.cn.Chip.Stats()
		total.Ticks += w.stats[i].Ticks
		total.Spikes += w.stats[i].Spikes
		total.SynEvents += w.stats[i].SynEvents
		if noc := w.cn.Chip.NoC(); noc != nil {
			hops += noc.Hops
		}
		if w.cn.DecideClass(w.want[i]) == w.test.Y[i] {
			correct++
		}
	}
	for i := 0; i < min(w.dense, n); i++ {
		got := w.frame(i, true, nil, 0)
		if st := w.cn.Chip.Stats(); !slices.Equal(got, w.want[i]) || st != w.stats[i] {
			r.problem("chip: digit %d dense counts %v stats %+v, event-driven %v %+v", i, got, st, w.want[i], w.stats[i])
		}
	}
	r.e2e["accuracy"] = float64(correct) / float64(n)
	r.layers["truenorth.ticks_per_frame"] = float64(total.Ticks) / float64(n)
	r.layers["truenorth.spikes_per_frame"] = float64(total.Spikes) / float64(n)
	r.layers["truenorth.synev_per_frame"] = float64(total.SynEvents) / float64(n)
	r.note("chip: %d cores, NoC hops per frame %g (bench 1 has no core-to-core traffic)",
		w.cn.Chip.NumCores(), float64(hops)/float64(n))
	return nil
}

func (w *chipWL) measure(until time.Time, tr *tracer) (phase, error) {
	n := w.test.Len()
	return loop(until, func(i int) (int, error) {
		start := time.Now()
		k := i % n
		got := w.frame(k, false, tr, i)
		if !slices.Equal(got, w.want[k]) {
			return 1, fmt.Errorf("%w: op %d digit %d counts %v, want %v", errWrong, i, k, got, w.want[k])
		}
		tr.add("op", i, start)
		return 1, nil
	})
}

func (w *chipWL) layers(r *result, tr *tracer) error {
	ops, frames := tr.named("op"), tr.named("deploy.chip_frame")
	if len(ops) == 0 {
		return fmt.Errorf("no traced chip ops")
	}
	r.layers["deploy.chip_frame_ms"] = median(msOf(frames))
	var synev int64
	for _, o := range ops {
		synev += w.stats[o.op%w.test.Len()].SynEvents
	}
	r.layers["truenorth.ns_per_synev"] = sumMS(frames) * 1e6 / float64(synev)
	r.layers["trace.unattributed_frac"] = unattributed(ops, perOpMS(frames))

	// Event-driven Frame against the dense reference, alternating on the
	// same digits in this process: op 0 collects event-driven frames, op 1
	// dense ones.
	pair := &tracer{}
	for round := 0; round < denseRounds; round++ {
		for i := 0; i < min(w.dense, w.test.Len()); i++ {
			w.frame(i, false, pair, 0)
			w.frame(i, true, pair, 1)
		}
	}
	t := perOpMS(pair.named("deploy.chip_frame"))
	r.layers["truenorth.dense_ratio"] = t[0] / t[1]
	return nil
}

func (w *chipWL) close() {}

package eval

import (
	"time"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/rng"
)

// EarlyExitPoint is one confidence threshold of the accuracy-vs-copies sweep
// on one bench. Conf = 0 is the exact full-budget reference the other points
// are measured against.
type EarlyExitPoint struct {
	Conf float64
	// Accuracy over the evaluated items at this threshold.
	Accuracy float64
	// ExactMatch is the fraction of items whose prediction equals the exact
	// full-budget prediction (1 for conf = 0 by construction).
	ExactMatch float64
	// MeanCopies is the mean ensemble copies that actually voted per item.
	MeanCopies float64
	// EarlyExitRate is the fraction of items the gate stopped before budget.
	EarlyExitRate float64
	// WallPerItem is the measured mean classification wall time per item;
	// Speedup is the exact point's wall over this point's wall.
	WallPerItem time.Duration
	Speedup     float64
}

// EarlyExitBench is the sweep on one bench: a fixed ensemble budget swept
// across confidence thresholds.
type EarlyExitBench struct {
	Bench   Bench
	Penalty string
	Copies  int
	SPF     int
	Items   int
	Points  []EarlyExitPoint
}

// EarlyExitResult is the tnrepro -exp earlyexit payload.
type EarlyExitResult struct {
	Benches []EarlyExitBench
}

// EarlyExit sweeps the confidence-gated ensemble scheduler on the digits and
// protein benches (1 and 4, biased models): a fixed copies x spf vote budget
// classified at rising early-exit thresholds, measuring accuracy, agreement
// with the exact vote, mean copies used and wall-clock speedup. Every point
// reuses the same per-item streams (engine wave-path derivation), so the
// exact point is the bit-exact full-budget sum of the same copy votes the
// gated points truncate.
func EarlyExit(r *Runner) (*EarlyExitResult, error) {
	confs := []float64{0, 0.5, 0.9, 0.99}
	if c := r.Opt.Conf; c > 0 {
		confs = []float64{0, c}
	}
	copies, spf := 16, 2
	res := &EarlyExitResult{}
	for _, bid := range []int{1, 4} {
		if err := r.ctxErr(); err != nil {
			return nil, err
		}
		b, err := BenchByID(bid)
		if err != nil {
			return nil, err
		}
		m, err := r.Model(b, "biased")
		if err != nil {
			return nil, err
		}
		_, test := r.Data(b)
		n := min(test.Len(), r.Opt.EvalLimit())
		plan := deploy.CompileQuant(m.Net)
		seed := r.Opt.Seed + 6000 + uint64(b.ID)
		ens := deploy.NewSeededEnsemble(plan, copies, seed, 17, deploy.DefaultSampleConfig())
		eng := engine.New(ens, engine.Config{Workers: r.Opt.Workers, Ctx: r.Opt.Ctx})
		items := seededItems(test.X, n, spf, copies, seed)
		// Materialize every lazy copy before timing so the exact point does
		// not pay the one-off sampling cost the gated points skip.
		if _, err := eng.ClassifyItems(items[:1]); err != nil {
			return nil, err
		}
		eb := EarlyExitBench{Bench: b, Penalty: "biased", Copies: copies, SPF: spf, Items: n}
		var exact []engine.Outcome
		var exactWall time.Duration
		for _, conf := range confs {
			if err := r.ctxErr(); err != nil {
				return nil, err
			}
			for i := range items {
				items[i].Conf = conf
			}
			start := time.Now()
			outs, err := eng.ClassifyItems(items)
			if err != nil {
				return nil, err
			}
			wall := time.Since(start)
			match := 0
			for i, o := range outs {
				if exact == nil || o.Class == exact[i].Class {
					match++
				}
			}
			tl := tally(outs, test.Y, copies)
			p := EarlyExitPoint{
				Conf:          conf,
				Accuracy:      tl.accuracy,
				ExactMatch:    float64(match) / float64(n),
				MeanCopies:    tl.meanCopies,
				EarlyExitRate: tl.exitRate,
				WallPerItem:   wall / time.Duration(n),
				Speedup:       1,
			}
			if exact == nil {
				exact, exactWall = outs, wall
			} else if wall > 0 {
				p.Speedup = float64(exactWall) / float64(wall)
			}
			eb.Points = append(eb.Points, p)
			r.logf("earlyexit %s conf %.2f: acc %.4f (match %.4f), %.2f/%d copies, exit rate %.2f, %v/item (%.2fx)",
				b.Name, p.Conf, p.Accuracy, p.ExactMatch, p.MeanCopies, copies, p.EarlyExitRate,
				p.WallPerItem.Round(time.Microsecond), p.Speedup)
		}
		res.Benches = append(res.Benches, eb)
	}
	return res, nil
}

// seededItems builds the first n inputs of xs into one evaluation batch in
// which item i owns stream 100+i of seed — the derivation the serving tier
// uses too. copies 0 keeps the single-evaluation path (a chip predictor
// carries its ensemble internally); copies > 1 routes through the wave
// scheduler.
func seededItems(xs [][]float64, n, spf, copies int, seed uint64) []engine.Item {
	items := make([]engine.Item, n)
	for i := range items {
		stream := 100 + uint64(i)
		items[i] = engine.Item{
			X: xs[i], SPF: spf, Copies: copies,
			Seed: func(dst *rng.PCG32) { dst.Seed(seed, stream) },
		}
	}
	return items
}

// itemTally summarizes one classified batch against its labels: accuracy,
// the mean ensemble copies that voted per item, and the fraction of items
// the confidence gate stopped short of their copies budget.
type itemTally struct{ accuracy, meanCopies, exitRate float64 }

func tally(outs []engine.Outcome, labels []int, copies int) itemTally {
	correct, exits, used := 0, 0, 0
	for i, o := range outs {
		if o.Class == labels[i] {
			correct++
		}
		if o.CopiesUsed < copies {
			exits++
		}
		used += o.CopiesUsed
	}
	n := float64(len(outs))
	return itemTally{
		accuracy:   float64(correct) / n,
		meanCopies: float64(used) / n,
		exitRate:   float64(exits) / n,
	}
}

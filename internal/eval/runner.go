package eval

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/synth/digits"
	"repro/internal/synth/protein"
)

// Runner caches generated datasets and trained models across experiments so a
// multi-experiment invocation trains each (bench, penalty) model exactly once.
type Runner struct {
	Opt Options
	// Log receives progress lines; nil silences them.
	Log io.Writer

	mu     sync.Mutex
	data   map[string][2]*dataset.Dataset
	models map[string]*core.Model
	// fig7 holds the Figure 7 surfaces that the fig7, table2a and fig9a rows
	// of the experiment table share; Fig7 itself neither reads nor fills it.
	fig7 *Fig7Result
}

// NewRunner returns a Runner with empty caches.
func NewRunner(opt Options, log io.Writer) *Runner {
	return &Runner{
		Opt:    opt,
		Log:    log,
		data:   make(map[string][2]*dataset.Dataset),
		models: make(map[string]*core.Model),
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Data returns (generating on first use) the train/test split for a bench.
func (r *Runner) Data(b Bench) (*dataset.Dataset, *dataset.Dataset) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.data[b.Dataset]; ok {
		return d[0], d[1]
	}
	start := time.Now()
	var train, test *dataset.Dataset
	switch b.Dataset {
	case "digits":
		train, test = digits.Generate(r.Opt.digitsConfig())
	case "protein":
		train, test = protein.Generate(r.Opt.proteinConfig())
	default:
		panic(fmt.Sprintf("eval: unknown dataset %q", b.Dataset))
	}
	r.logf("generated %s: %d train / %d test in %v", b.Dataset, train.Len(), test.Len(), time.Since(start).Round(time.Millisecond))
	r.data[b.Dataset] = [2]*dataset.Dataset{train, test}
	return train, test
}

// Model returns (training on first use) the model for (bench, penalty).
func (r *Runner) Model(b Bench, penalty string) (*core.Model, error) {
	key := fmt.Sprintf("%d/%s", b.ID, penalty)
	r.mu.Lock()
	if m, ok := r.models[key]; ok {
		r.mu.Unlock()
		return m, nil
	}
	r.mu.Unlock()

	train, test := r.Data(b)
	cfg, lambda := r.Opt.TrainConfig(penalty)
	start := time.Now()
	m, err := core.TrainModel(core.TrainSpec{
		Arch: b.Arch, Penalty: penalty, Lambda: lambda, Train: cfg, Seed: r.Opt.Seed + uint64(b.ID),
	}, train, test)
	if err != nil {
		return nil, fmt.Errorf("eval: bench %d penalty %s: %w", b.ID, penalty, err)
	}
	r.logf("trained %s/%s: float acc %.4f (loss %.4f) in %v",
		b.Name, penalty, m.Meta.FloatAccuracy, m.Meta.TrainLoss, time.Since(start).Round(time.Millisecond))
	r.mu.Lock()
	r.models[key] = m
	r.mu.Unlock()
	return m, nil
}

// sharedFig7 returns the Figure 7 surfaces, measuring them on first use.
func (r *Runner) sharedFig7() (*Fig7Result, error) {
	r.mu.Lock()
	f := r.fig7
	r.mu.Unlock()
	if f != nil {
		return f, nil
	}
	f, err := Fig7(r)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.fig7 = f
	r.mu.Unlock()
	return f, nil
}

// EvalConfig assembles the deployment evaluation configuration every
// experiment shares — repeats, sample limit, worker cap and cancellation
// context from the options — seeded as given. Callers override Copies, SPF
// or Sample as their measurement requires.
func (r *Runner) EvalConfig(seed uint64) deploy.EvalConfig {
	return deploy.EvalConfig{
		Repeats: r.Opt.Repeats(),
		Limit:   r.Opt.EvalLimit(),
		Seed:    seed,
		Workers: r.Opt.Workers,
		Sample:  deploy.DefaultSampleConfig(),
		Ctx:     r.Opt.Ctx,
	}
}

// Surface measures (with caching left to the caller) the deployment accuracy
// grid for a bench/penalty pair.
func (r *Runner) Surface(b Bench, penalty string, maxCopies, maxSPF int) (*deploy.SurfaceResult, error) {
	m, err := r.Model(b, penalty)
	if err != nil {
		return nil, err
	}
	_, test := r.Data(b)
	cfg := r.EvalConfig(r.Opt.Seed + 1000 + uint64(b.ID))
	start := time.Now()
	surf, err := deploy.Surface(m.Net, test, maxCopies, maxSPF, cfg)
	if err != nil {
		return nil, err
	}
	r.logf("surface %s/%s %dx%d in %v", b.Name, penalty, maxCopies, maxSPF, time.Since(start).Round(time.Millisecond))
	return surf, nil
}

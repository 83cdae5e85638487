package eval

import (
	"fmt"
	"slices"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
)

// FaultPoint is one sweep point of a degradation curve: the fault level (a
// rate for chip models, a noise magnitude for analog models, DAC bits for
// "dac"), the canonical spec string that reproduces the point, and the
// accuracy measured there.
type FaultPoint struct {
	Level    float64 `json:"level"`
	Spec     string  `json:"spec"`
	Accuracy float64 `json:"accuracy"`
}

// FaultCurve is accuracy versus fault level for one (execution path, fault
// model, learner, ensemble size) combination. Level 0 is always present: it
// runs through the full fault machinery with a zero config, and
// ZeroFaultExact records whether its outcomes were bit-identical to the
// never-faulted predictor — the zero-fault contract of docs/DETERMINISM.md,
// measured rather than assumed.
type FaultCurve struct {
	Path           string       `json:"path"`  // "chip" or "fast"
	Model          string       `json:"model"` // dead, stuck0, silent, drop, drift, read, dac, custom
	Penalty        string       `json:"penalty"`
	Copies         int          `json:"copies"`
	ZeroFaultExact bool         `json:"zero_fault_exact"`
	Points         []FaultPoint `json:"points"`
}

// FaultGatePoint is one confidence threshold of the gate-under-faults probe.
type FaultGatePoint struct {
	Conf          float64 `json:"conf"`
	Accuracy      float64 `json:"accuracy"`
	MeanCopies    float64 `json:"mean_copies"`
	EarlyExitRate float64 `json:"early_exit_rate"`
}

// FaultGate measures how the PR 6 confidence gate behaves when the substrate
// under it is noisy: same budget and thresholds on a clean and a drifted
// ensemble. Spec is empty for the clean reference.
type FaultGate struct {
	Spec   string           `json:"spec"`
	Copies int              `json:"copies"`
	Points []FaultGatePoint `json:"points"`
}

// FaultsResult is the tnrepro -exp faults payload (recorded into
// BENCH_9.json).
type FaultsResult struct {
	Bench     Bench        `json:"bench"`
	SPF       int          `json:"spf"`
	Items     int          `json:"items"`      // fast-path test items per point
	ChipItems int          `json:"chip_items"` // chip-path test items per point
	FaultSeed uint64       `json:"fault_seed"`
	Curves    []FaultCurve `json:"curves"`
	Gates     []FaultGate  `json:"gates"`
}

// faultModel is one row of the sweep grid: which execution path it exercises
// and the fault levels to visit (level 0 first, by construction).
type faultModel struct {
	path   string
	name   string
	levels []float64
}

// faultConfigAt builds the Config of one sweep point. Level 0 yields a config
// with no fault models enabled — the zero-fault parity point.
func faultConfigAt(md faultModel, level float64, seed uint64, custom *fault.Config) fault.Config {
	if md.name == "custom" {
		if level == 0 {
			return fault.Config{Seed: seed}
		}
		return *custom
	}
	cfg := fault.Config{Seed: seed}
	switch md.name {
	case "dead":
		cfg.DeadCore = level
	case "stuck0":
		cfg.Stuck0 = level
	case "silent":
		cfg.Silent = level
	case "drop":
		cfg.Drop = level
	case "drift":
		cfg.Drift = level
	case "read":
		cfg.Read = level
	case "dac":
		cfg.DACBits = int(level)
	default:
		panic(fmt.Sprintf("eval: unknown fault model %q", md.name))
	}
	return cfg
}

// sameOutcomes reports bit-identity of two outcome slices: class, counts and
// copies used must all match item for item.
func sameOutcomes(a, b []engine.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].CopiesUsed != b[i].CopiesUsed ||
			!slices.Equal(a[i].Counts, b[i].Counts) {
			return false
		}
	}
	return true
}

// Faults is the graceful-degradation harness: it sweeps deterministic fault
// injection over both execution paths of the bench-1 models — chip-path
// hardware faults (dead cores, stuck synapses, silent neurons, delivery
// drops) through internal/fault.ApplyChip, and fast-path analog substrate
// noise (conductance drift, read noise, DAC quantization) through
// fault.AnalogPlan — for both the unpenalized (Tea) and biased learners at
// two ensemble sizes, then probes the confidence gate on a drifted ensemble.
//
// Every curve's level-0 point runs through the full fault machinery with an
// empty config and is compared bit-for-bit against the never-faulted
// predictor (ZeroFaultExact); all draws derive from FaultSeed and the copy
// index, never from inference streams, so any point is reproducible from its
// Spec string alone (e.g. via tnchip -fault).
func Faults(r *Runner) (*FaultsResult, error) {
	b, err := BenchByID(1)
	if err != nil {
		return nil, err
	}
	_, test := r.Data(b)
	n := min(test.Len(), r.Opt.EvalLimit())
	chipN, gateN := 256, 1000
	if r.Opt.Quick {
		chipN, gateN = 96, 300
	}
	chipN, gateN = min(chipN, n), min(gateN, n)
	spf := 2
	faultSeed := r.Opt.Seed + 9900
	seed := r.Opt.Seed + 9000 + uint64(b.ID)
	res := &FaultsResult{Bench: b, SPF: spf, Items: n, ChipItems: chipN, FaultSeed: faultSeed}

	grid := []faultModel{
		{"chip", "dead", []float64{0, 0.125, 0.25, 0.5}},
		{"chip", "stuck0", []float64{0, 0.1, 0.3, 0.6}},
		{"chip", "silent", []float64{0, 0.15, 0.3, 0.6}},
		{"chip", "drop", []float64{0, 0.1, 0.3, 0.6}},
		{"fast", "drift", []float64{0, 0.25, 0.5, 1}},
		{"fast", "read", []float64{0, 0.05, 0.15, 0.3}},
		{"fast", "dac", []float64{0, 6, 3, 2}},
	}
	if r.Opt.Quick {
		for i := range grid {
			l := grid[i].levels
			grid[i].levels = []float64{l[0], l[1], l[3]}
		}
	}
	var custom *fault.Config
	if r.Opt.FaultSpec != "" {
		cfg, err := fault.ParseSpec(r.Opt.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("eval: fault spec: %w", err)
		}
		if cfg.Seed == 0 {
			cfg.Seed = faultSeed
		}
		custom = &cfg
		zero := !cfg.HasChipFaults() && !cfg.HasAnalog()
		grid = nil
		if cfg.HasChipFaults() || zero {
			grid = append(grid, faultModel{"chip", "custom", []float64{0, 1}})
		}
		if cfg.HasAnalog() || zero {
			grid = append(grid, faultModel{"fast", "custom", []float64{0, 1}})
		}
	}

	classify := func(p engine.Predictor, items []engine.Item) ([]engine.Outcome, error) {
		eng := engine.New(p, engine.Config{Workers: r.Opt.Workers, Ctx: r.Opt.Ctx})
		return eng.ClassifyItems(items)
	}
	// fastEnsemble mirrors deploy.NewSeededEnsemble's copy derivation (copy k
	// sampled from stream 17+k of seed) but compiles each copy's plan through
	// the analog fault models first, so a zero config is draw-for-draw
	// identical to the clean seeded ensemble.
	fastEnsemble := func(cfg fault.Config, copies int, net *nn.Network, plan *deploy.QuantPlan) (*deploy.Ensemble, error) {
		sampled := make([]*deploy.SampledNet, copies)
		for k := range sampled {
			p, err := fault.AnalogPlan(cfg, net, k)
			if err != nil {
				return nil, err
			}
			sampled[k] = p.Sample(rng.NewPCG32(seed, 17+uint64(k)), deploy.DefaultSampleConfig())
		}
		return deploy.NewEnsemble(plan, copies, func(k int) *deploy.SampledNet { return sampled[k] }), nil
	}
	chipPredictor := func(cfg *fault.Config, copies int, plan *deploy.QuantPlan) (*deploy.ChipPredictor, error) {
		nets := make([]*deploy.SampledNet, copies)
		for k := range nets {
			nets[k] = plan.Sample(rng.NewPCG32(seed, 17+uint64(k)), deploy.DefaultSampleConfig())
		}
		cp, err := deploy.NewChipPredictor(nets, deploy.MapSigned, seed+77)
		if err != nil {
			return nil, err
		}
		if cfg != nil {
			if err := cp.SetFaults(fault.ChipHook(*cfg)); err != nil {
				return nil, err
			}
		}
		return cp, nil
	}

	for _, penalty := range []string{"none", "biased"} {
		m, err := r.Model(b, penalty)
		if err != nil {
			return nil, err
		}
		plan := deploy.CompileQuant(m.Net)
		for _, copies := range []int{1, 4} {
			if err := r.ctxErr(); err != nil {
				return nil, err
			}
			fastItems := seededItems(test.X, n, spf, copies, seed)
			chipItems := seededItems(test.X, chipN, spf, 0, seed)
			// Never-faulted references, then the zero-config points through
			// the fault machinery: bit-identity between the two is the
			// zero-fault contract, measured per (penalty, copies, path).
			refEns := deploy.NewSeededEnsemble(plan, copies, seed, 17, deploy.DefaultSampleConfig())
			refFast, err := classify(refEns, fastItems)
			if err != nil {
				return nil, err
			}
			zeroEns, err := fastEnsemble(fault.Config{Seed: faultSeed}, copies, m.Net, plan)
			if err != nil {
				return nil, err
			}
			zeroFast, err := classify(zeroEns, fastItems)
			if err != nil {
				return nil, err
			}
			fastExact := sameOutcomes(zeroFast, refFast)
			refCP, err := chipPredictor(nil, copies, plan)
			if err != nil {
				return nil, err
			}
			refChip, err := classify(refCP, chipItems)
			if err != nil {
				return nil, err
			}
			zeroCP, err := chipPredictor(&fault.Config{Seed: faultSeed}, copies, plan)
			if err != nil {
				return nil, err
			}
			zeroChip, err := classify(zeroCP, chipItems)
			if err != nil {
				return nil, err
			}
			chipExact := sameOutcomes(zeroChip, refChip)
			for _, md := range grid {
				exact := fastExact
				if md.path == "chip" {
					exact = chipExact
				}
				curve := FaultCurve{
					Path: md.path, Model: md.name, Penalty: penalty,
					Copies: copies, ZeroFaultExact: exact,
				}
				for _, level := range md.levels {
					if err := r.ctxErr(); err != nil {
						return nil, err
					}
					cfg := faultConfigAt(md, level, faultSeed, custom)
					var outs []engine.Outcome
					switch {
					case level == 0 && md.path == "chip":
						outs = zeroChip
					case level == 0:
						outs = zeroFast
					case md.path == "chip":
						cp, err := chipPredictor(&cfg, copies, plan)
						if err != nil {
							return nil, err
						}
						if outs, err = classify(cp, chipItems); err != nil {
							return nil, err
						}
					default:
						ens, err := fastEnsemble(cfg, copies, m.Net, plan)
						if err != nil {
							return nil, err
						}
						if outs, err = classify(ens, fastItems); err != nil {
							return nil, err
						}
					}
					curve.Points = append(curve.Points, FaultPoint{
						Level: level, Spec: cfg.String(), Accuracy: tally(outs, test.Y, copies).accuracy,
					})
				}
				res.Curves = append(res.Curves, curve)
				r.logf("faults %s/%s %s x%d exact=%v: %s",
					md.path, md.name, penalty, copies, exact, renderCurvePoints(curve.Points))
			}
		}
	}

	// Confidence gate under analog drift: the PR 6 wave scheduler at a
	// realistic budget, clean versus drifted substrate. A noisy ensemble has
	// wider vote spread, so the gate should spend more copies to reach the
	// same thresholds — MeanCopies quantifies the robustness cost.
	confs := []float64{0, 0.9, 0.99}
	if c := r.Opt.Conf; c > 0 {
		confs = []float64{0, c}
	}
	m, err := r.Model(b, "biased")
	if err != nil {
		return nil, err
	}
	plan := deploy.CompileQuant(m.Net)
	gateCopies := 16
	driftCfg := fault.Config{Seed: faultSeed, Drift: 0.5}
	if custom != nil && custom.HasAnalog() {
		driftCfg = *custom
	}
	for _, spec := range []string{"", driftCfg.String()} {
		if err := r.ctxErr(); err != nil {
			return nil, err
		}
		var ens *deploy.Ensemble
		if spec == "" {
			ens = deploy.NewSeededEnsemble(plan, gateCopies, seed, 17, deploy.DefaultSampleConfig())
		} else {
			if ens, err = fastEnsemble(driftCfg, gateCopies, m.Net, plan); err != nil {
				return nil, err
			}
		}
		eng := engine.New(ens, engine.Config{Workers: r.Opt.Workers, Ctx: r.Opt.Ctx})
		items := seededItems(test.X, gateN, spf, gateCopies, seed)
		if _, err := eng.ClassifyItems(items[:1]); err != nil {
			return nil, err
		}
		gate := FaultGate{Spec: spec, Copies: gateCopies}
		for _, conf := range confs {
			for i := range items {
				items[i].Conf = conf
			}
			outs, err := eng.ClassifyItems(items)
			if err != nil {
				return nil, err
			}
			tl := tally(outs, test.Y, gateCopies)
			gate.Points = append(gate.Points, FaultGatePoint{
				Conf:          conf,
				Accuracy:      tl.accuracy,
				MeanCopies:    tl.meanCopies,
				EarlyExitRate: tl.exitRate,
			})
		}
		res.Gates = append(res.Gates, gate)
		label := spec
		if label == "" {
			label = "(clean)"
		}
		r.logf("faults gate %s: %v", label, gate.Points)
	}
	return res, nil
}

// renderCurvePoints formats level:accuracy pairs for logs and the report.
func renderCurvePoints(pts []FaultPoint) string {
	s := ""
	for i, p := range pts {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%g:%.4f", p.Level, p.Accuracy)
	}
	return s
}

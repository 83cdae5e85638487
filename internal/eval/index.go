package eval

import "strings"

// Experiment is one row of the reproduction's experiment table: the ids that
// select it on tnrepro's -exp flag, its training phase and its run.
type Experiment struct {
	// IDs are the experiment's -exp ids, canonical first, then aliases.
	IDs []string
	// Train runs the experiment's training phase without any deployment
	// evaluation. It backs tnrepro's -trainonly flag, so that -cpuprofile /
	// -memprofile runs capture the SGD hot loop alone instead of mixing it
	// with Monte-Carlo deployment noise.
	//
	// The core-layer models it trains land in the Runner's cache, and Run on
	// the same Runner reuses them. Three rows differ: table1 only generates
	// datasets (it trains nothing); l1sparsity trains its two MLPs and
	// discards them, because MLPs are not runner-cached, so a following Run
	// trains them again (fine for profiling, wasteful as a warm-up); and
	// ablations trains only the shared bench-1 models, since its ad-hoc
	// variants (frozen variance, penalty shapes, ...) are trained inside Run
	// and are not runner-cached either.
	Train func(*Runner) error
	// Run performs the experiment and returns its rendered text. Artifacts
	// (CSV, PGM) are written under Opt.OutDir when it is set.
	Run func(*Runner) (string, error)
}

// Experiments returns the experiment table, in the order `tnrepro -exp all`
// runs it.
func Experiments() []Experiment {
	bench1, all := []int{1}, []int{1, 2, 3, 4, 5}
	// fig7, table2a and fig9a share one Fig7Result, so one Train step too.
	fig7Train := models(bench1, "none", "biased")
	return []Experiment{
		{[]string{"table1"}, func(r *Runner) error { _, err := Table1(r); return err }, render(Table1, RenderTable1)},
		{[]string{"section31"}, models(bench1, "none"), render(Section31, RenderSection31)},
		{[]string{"l1sparsity"}, func(r *Runner) error { _, _, err := l1SparsityModels(r); return err }, render(L1Sparsity, RenderL1Sparsity)},
		{[]string{"fig5"}, models(bench1, "none", "l1", "biased"), render(Fig5, RenderFig5)},
		{[]string{"fig4"}, models(bench1, "none", "biased"), render(Fig4, RenderFig4)},
		{[]string{"fig7", "fig8"}, fig7Train, runFig7},
		{[]string{"table2a"}, fig7Train, fromFig7(Table2a, RenderTable2a)},
		{[]string{"table2b"}, models(bench1, "none", "biased"), render(Table2b, RenderTable2b)},
		{[]string{"fig9a"}, fig7Train, fromFig7(Fig9a, RenderFig9a)},
		{[]string{"fig9b"}, models(all, "none", "biased"), render(Fig9b, RenderFig9b)},
		{[]string{"table3"}, models(all, "none", "biased"), render(Table3, RenderTable3)},
		{[]string{"chipscale"}, models([]int{3}, "biased"), render(ChipScale, RenderChipScale)},
		{[]string{"earlyexit"}, models([]int{1, 4}, "biased"), render(EarlyExit, RenderEarlyExit)},
		{[]string{"ablations"}, models(bench1, "none", "biased"), runAblations},
		{[]string{"faults"}, models(bench1, "none", "biased"), render(Faults, RenderFaults)},
	}
}

// models is a Train step that trains each listed bench under each penalty.
func models(benchIDs []int, penalties ...string) func(*Runner) error {
	return func(r *Runner) error {
		for _, id := range benchIDs {
			b, err := BenchByID(id)
			if err != nil {
				return err
			}
			for _, pen := range penalties {
				if _, err := r.Model(b, pen); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

// render is a Run step that renders what the experiment function returns.
func render[T any](run func(*Runner) (T, error), show func(T) string) func(*Runner) (string, error) {
	return func(r *Runner) (string, error) {
		v, err := run(r)
		if err != nil {
			return "", err
		}
		return show(v), nil
	}
}

// fromFig7 is a Run step that renders a result derived from the Figure 7
// surfaces the Runner shares between rows.
func fromFig7[T any](derive func(*Runner, *Fig7Result) T, show func(T) string) func(*Runner) (string, error) {
	return func(r *Runner) (string, error) {
		f, err := r.sharedFig7()
		if err != nil {
			return "", err
		}
		return show(derive(r, f)), nil
	}
}

// runFig7 renders Figures 7 and 8 and writes both surfaces as CSV.
func runFig7(r *Runner) (string, error) {
	f, err := r.sharedFig7()
	if err != nil {
		return "", err
	}
	if r.Opt.OutDir != "" {
		if _, err := WriteSurfaceCSV(r.Opt.OutDir, "fig7_tea.csv", f.Tea); err != nil {
			return "", err
		}
		if _, err := WriteSurfaceCSV(r.Opt.OutDir, "fig7_biased.csv", f.Biased); err != nil {
			return "", err
		}
	}
	return RenderFig7(f), nil
}

// runAblations renders every design-choice ablation, one block each.
func runAblations(r *Runner) (string, error) {
	var blocks []string
	for _, a := range []struct {
		title string
		run   func(*Runner) ([]AblationRow, error)
	}{
		{"Ablation: variance-path gradient", AblationSigma},
		{"Ablation: leak realization", AblationLeak},
		{"Ablation: Eq. 17 penalty shape (a, b)", AblationPenaltyShape},
		{"Ablation: neural input codes (1 copy, 2 spf)", AblationCoding},
		{"Ablation: integer-threshold continuity correction", AblationContinuity},
	} {
		rows, err := a.run(r)
		if err != nil {
			return "", err
		}
		blocks = append(blocks, RenderAblation(a.title, rows))
	}
	m, err := AblationMapping(r)
	if err != nil {
		return "", err
	}
	return strings.Join(append(blocks, RenderMapping(m)), "\n"), nil
}

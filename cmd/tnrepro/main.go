// Command tnrepro regenerates the paper's tables and figures on the simulated
// TrueNorth substrate.
//
// Usage:
//
//	tnrepro -exp all                 # every experiment, full protocol
//	tnrepro -exp table2a -quick      # one experiment at smoke scale
//	tnrepro -exp fig7 -out results/  # also dump CSV/PGM artifacts
//
// Experiments: table1, section31, l1sparsity, fig4, fig5, fig7 (includes
// fig8), table2a, table2b, fig9a, fig9b, table3, chipscale, earlyexit,
// ablations, faults, all.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/eval"
)

func main() {
	// All work happens in run so its defers — CPU profile flush, heap
	// profile write — execute on error paths too; os.Exit here would skip
	// them if called any deeper.
	os.Exit(run())
}

func run() (code int) {
	var (
		expFlag    = flag.String("exp", "all", "experiment id (comma separated) or 'all'")
		quick      = flag.Bool("quick", false, "smoke scale: small datasets, few epochs/repeats")
		seed       = flag.Uint64("seed", 20160605, "master seed")
		workers    = flag.Int("workers", 0, "goroutine cap (0 = GOMAXPROCS)")
		outDir     = flag.String("out", "", "directory for CSV/PGM artifacts (optional)")
		trainN     = flag.Int("train", 0, "override train set size")
		testN      = flag.Int("test", 0, "override test set size")
		epochs     = flag.Int("epochs", 0, "override training epochs")
		repeats    = flag.Int("repeats", 0, "override deployment repeats")
		batch      = flag.Int("batch", 0, "override SGD minibatch size (default 32)")
		conf       = flag.Float64("conf", 0, "earlyexit/faults: sweep only {0, conf} instead of the default threshold ladder")
		faultSpec  = flag.String("fault", "", "faults: replace the default sweep grid with this single fault spec (e.g. 'dead=0.25,drop=0.1' or 'drift=0.5,dacbits=4')")
		place      = flag.String("place", "", "chipscale: placement strategy (naive, layered, anneal; default anneal)")
		trainOnly  = flag.Bool("trainonly", false, "train the selected experiments' models, then exit before any deployment evaluation (so -cpuprofile/-memprofile capture the SGD loop alone)")
		quiet      = flag.Bool("quiet", false, "suppress progress logging")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "write a pprof heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			// A failed heap-profile write must fail the process, not just
			// print: overwrite the named return as the stack unwinds.
			f, err := os.Create(*memprofile)
			if err != nil {
				code = fail(fmt.Errorf("memprofile: %w", err))
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(fmt.Errorf("memprofile: %w", err))
			}
		}()
	}

	// Interrupt aborts in-flight engine evaluations instead of hanging until
	// the current experiment drains. Training phases do not check the
	// context, so restore default signal handling after the first interrupt:
	// a second Ctrl-C then kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	opt := eval.Options{
		Quick: *quick, Seed: *seed, Workers: *workers, OutDir: *outDir,
		TrainN: *trainN, TestN: *testN, EpochsN: *epochs, RepeatsN: *repeats,
		BatchN: *batch, Conf: *conf, FaultSpec: *faultSpec, Place: *place,
		Ctx: ctx,
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(err)
		}
	}
	var log *os.File
	if !*quiet {
		log = os.Stderr
	}
	r := eval.NewRunner(opt, log)

	ids := strings.Split(*expFlag, ",")
	if *expFlag == "all" {
		ids = []string{"table1", "section31", "l1sparsity", "fig5", "fig4",
			"fig7", "table2a", "table2b", "fig9a", "fig9b", "table3", "chipscale", "earlyexit", "ablations", "faults"}
	}
	start := time.Now()
	if *trainOnly {
		for _, id := range ids {
			if err := eval.Pretrain(r, strings.TrimSpace(id)); err != nil {
				return fail(fmt.Errorf("pretrain %s: %w", id, err))
			}
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trainonly: models trained in %v, skipping deployment\n", time.Since(start).Round(time.Second))
		}
		return 0
	}
	// fig7 results feed table2a and fig9a; compute lazily and share.
	var fig7 *eval.Fig7Result
	getFig7 := func() (*eval.Fig7Result, error) {
		if fig7 != nil {
			return fig7, nil
		}
		f, err := eval.Fig7(r)
		if err == nil {
			fig7 = f
		}
		return f, err
	}
	for _, id := range ids {
		if err := runExperiment(r, strings.TrimSpace(id), getFig7, opt); err != nil {
			return fail(fmt.Errorf("experiment %s: %w", id, err))
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "total elapsed: %v\n", time.Since(start).Round(time.Second))
	}
	return 0
}

func runExperiment(r *eval.Runner, id string, getFig7 func() (*eval.Fig7Result, error), opt eval.Options) error {
	switch id {
	case "table1":
		rows, err := eval.Table1(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable1(rows))
	case "section31":
		s, err := eval.Section31(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderSection31(s))
	case "l1sparsity":
		s, err := eval.L1Sparsity(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderL1Sparsity(s))
	case "fig5":
		f, err := eval.Fig5(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFig5(f))
	case "fig4":
		f, err := eval.Fig4(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFig4(f))
	case "fig7", "fig8":
		f, err := getFig7()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFig7(f))
		if opt.OutDir != "" {
			if _, err := eval.WriteSurfaceCSV(opt.OutDir, "fig7_tea.csv", f.Tea); err != nil {
				return err
			}
			if _, err := eval.WriteSurfaceCSV(opt.OutDir, "fig7_biased.csv", f.Biased); err != nil {
				return err
			}
		}
	case "table2a":
		f, err := getFig7()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable2a(eval.Table2a(r, f)))
	case "table2b":
		t2b, err := eval.Table2b(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable2b(t2b))
	case "fig9a":
		f, err := getFig7()
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFig9a(eval.Fig9a(r, f)))
	case "fig9b":
		f, err := eval.Fig9b(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFig9b(f))
	case "table3":
		rows, err := eval.Table3(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderTable3(rows))
	case "chipscale":
		c, err := eval.ChipScale(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderChipScale(c))
	case "earlyexit":
		ee, err := eval.EarlyExit(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderEarlyExit(ee))
	case "faults":
		f, err := eval.Faults(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderFaults(f))
	case "ablations":
		sig, err := eval.AblationSigma(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblation("Ablation: variance-path gradient", sig))
		leak, err := eval.AblationLeak(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblation("Ablation: leak realization", leak))
		shape, err := eval.AblationPenaltyShape(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblation("Ablation: Eq. 17 penalty shape (a, b)", shape))
		coding, err := eval.AblationCoding(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblation("Ablation: neural input codes (1 copy, 2 spf)", coding))
		cont, err := eval.AblationContinuity(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderAblation("Ablation: integer-threshold continuity correction", cont))
		m, err := eval.AblationMapping(r)
		if err != nil {
			return err
		}
		fmt.Println(eval.RenderMapping(m))
	default:
		return fmt.Errorf("unknown experiment %q", id)
	}
	return nil
}

// fail reports err and returns the process exit code, leaving deferred
// cleanup (profile flushes) to run as the stack unwinds.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tnrepro:", err)
	return 1
}

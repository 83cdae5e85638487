// Command tnrepro regenerates the paper's tables and figures on the simulated
// TrueNorth substrate.
//
// Usage:
//
//	tnrepro -exp all                 # every experiment, full protocol
//	tnrepro -exp table2a -quick      # one experiment at smoke scale
//	tnrepro -exp fig7 -out results/  # also dump CSV/PGM artifacts
//
// The -exp ids are the rows of the experiment table, eval.Experiments;
// `tnrepro -h` lists them, and docs/ARCHITECTURE.md's experiment index maps
// each to its paper artifact.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
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
	table := eval.Experiments()
	var (
		expFlag    = flag.String("exp", "all", "comma-separated experiment ids: all, "+strings.Join(experimentIDs(table), ", "))
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
	exps, err := resolve(*expFlag, table)
	if err != nil {
		return fail(err)
	}

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

	start := time.Now()
	for _, e := range exps {
		if *trainOnly {
			if err := e.Train(r); err != nil {
				return fail(fmt.Errorf("train %s: %w", e.IDs[0], err))
			}
			continue
		}
		out, err := e.Run(r)
		if err != nil {
			return fail(fmt.Errorf("experiment %s: %w", e.IDs[0], err))
		}
		fmt.Println(out)
	}
	if !*quiet {
		if *trainOnly {
			fmt.Fprintf(os.Stderr, "trainonly: models trained in %v, skipping deployment\n", time.Since(start).Round(time.Second))
		} else {
			fmt.Fprintf(os.Stderr, "total elapsed: %v\n", time.Since(start).Round(time.Second))
		}
	}
	return 0
}

// experimentIDs lists every id of the experiment table, in table order.
func experimentIDs(table []eval.Experiment) []string {
	var ids []string
	for _, e := range table {
		ids = append(ids, e.IDs...)
	}
	return ids
}

// resolve maps a comma-separated -exp value onto experiment table rows, in
// the order given: "all" expands to the whole table, and a repeated id runs
// again. It fails on the first unknown id; run resolves before it generates
// or trains anything, so a typo costs no work.
func resolve(spec string, table []eval.Experiment) ([]eval.Experiment, error) {
	var exps []eval.Experiment
	for _, id := range strings.Split(spec, ",") {
		id = strings.TrimSpace(id)
		if id == "all" {
			exps = append(exps, table...)
			continue
		}
		i := slices.IndexFunc(table, func(e eval.Experiment) bool { return slices.Contains(e.IDs, id) })
		if i < 0 {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: all, %s", id, strings.Join(experimentIDs(table), ", "))
		}
		exps = append(exps, table[i])
	}
	return exps, nil
}

// fail reports err and returns the process exit code, leaving deferred
// cleanup (profile flushes) to run as the stack unwinds.
func fail(err error) int {
	fmt.Fprintln(os.Stderr, "tnrepro:", err)
	return 1
}

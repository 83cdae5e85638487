// Command perfbench is the repository's benchmark. Every workload trains the
// bench-1 biased model in its set-up, runs a fixed seeded pass that checks
// the outputs and fixes accuracy and the exact count metrics, then runs
// operations back to back for --seconds and prints one JSON line: the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a run whose
// calls into each layer are timed from this package.
//
// Workloads (METRICS.md maps each per-layer metric to the end-to-end metric
// it should move):
//
//	surface  one deploy.Surface call per op: the Fig. 7 / Table 2 inner loop
//	chip     one ChipNet.Frame per op on a 64-copy, 256-core placed chip
//	serve    one HTTP classify request per op through a Router and 2 Servers
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload chip --seed 1 --seconds 14 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run prints, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"accuracy", "frac"},
	{"max_rss_mb", "MB"},
}

// perLayer lists the metrics every traced run prints, on every workload. A
// layer a workload does not load reads 0.
var perLayer = []metricDef{
	{"synth.generate_s", "s"},
	{"nn.train_s", "s"},
	{"nn.train_samples_per_s", "1/s"},
	{"nn.load_s", "s"},
	{"deploy.compile_ms", "ms"},
	{"deploy.sample_ms", "ms"},
	{"deploy.samples_per_op", "count"},
	{"engine.grid_ms", "ms"},
	{"engine.ns_per_frame", "ns"},
	{"engine.copies_per_item", "count"},
	{"engine.early_exit_frac", "frac"},
	{"deploy.chip_build_s", "s"},
	{"deploy.chip_frame_ms", "ms"},
	{"truenorth.ticks_per_frame", "count"},
	{"truenorth.spikes_per_frame", "count"},
	{"truenorth.synev_per_frame", "count"},
	{"truenorth.ns_per_synev", "ns"},
	{"truenorth.dense_ratio", "ratio"},
	{"serve.hot_ms_p50", "ms"},
	{"serve.cold_ms_p50", "ms"},
	{"serve.ens_ms_p50", "ms"},
	{"serve.worker_ms", "ms"},
	{"serve.router_self_ms", "ms"},
	{"serve.net_ms", "ms"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.batch_size", "count"},
	{"serve.hot_cache_hit_frac", "frac"},
	{"serve.cold_cache_hit_frac", "frac"},
	{"serve.ens_cache_hit_frac", "frac"},
	{"serve.sheds", "count"},
	{"serve.errors", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.unattributed_frac", "frac"},
}

// sizes scales a run. The exact-repeat test shrinks them; the benchmark
// itself always runs fullSize.
type sizes struct {
	trainN, epochs int // training corpus and epochs
	testN          int // held-out digits; accuracy covers all of them on surface
	surfaceItems   int // digits one surface op classifies
	chipItems      int // digits the chip ops cycle through
	setups         int // set-up repetitions; setup_s is their median
	chipCopies     int // sampled copies sharing the chip
	denseFrames    int // chip frames re-run on the dense reference
	servePeriod    int // requests per client in one pass of its sequence
}

var fullSize = sizes{
	trainN: 2000, epochs: 3, testN: 1000, setups: 3,
	surfaceItems: 200, chipItems: 300, chipCopies: 64, denseFrames: 8, servePeriod: 300,
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // scratch space for model files
	size     sizes
}

// workload is one prepared benchmark workload.
type workload interface {
	// check runs the workload's fixed seeded pass: it verifies the outputs,
	// records accuracy and the exact count metrics, and fixes the expected
	// output of every later op.
	check(r *result) error
	// measure runs ops until the deadline; a non-nil tr records spans.
	measure(until time.Time, tr *tracer) (phase, error)
	// layers derives the per-layer metrics of a traced phase.
	layers(r *result, tr *tracer) error
	close()
}

// setupFunc runs a workload's set-up, recording per-layer set-up times in lt.
type setupFunc func(cfg config, lt map[string]float64) (workload, error)

var workloads = map[string]struct {
	build setupFunc
	// tailPct is the op_ms_tail percentile, fixed per workload so the metric
	// means the same in every run: the run length leaves at least minBeyond
	// ops beyond it even on a slow host. On serve it is the middle of the
	// cold class's latency mode, where host stalls move it least. On surface
	// and chip the host's slow stretches, 0.2-6 s long, set the tail, and a
	// percentile that the share of slow time in a run crosses from run to
	// run jumps between them; these percentiles moved least on recorded
	// runs (METRICS.md).
	tailPct float64
}{
	"surface": {newSurface, 80},
	"chip":    {newChip, 85},
	"serve":   {newServe, 95},
}

// result gathers one run's metrics and check outcomes.
type result struct {
	problems  []string // failed output checks
	attempted int
	failed    int
	e2e       map[string]float64
	layers    map[string]float64
	notes     []string // human-readable lines printed before the result
	diag      map[string]any
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// phase is the record of one run of ops.
type phase struct {
	latMS    []float64 // per-op latency
	items    int       // inputs classified
	failed   int       // ops that got no answer
	wrong    int       // ops whose answer differed from the expected one
	firstBad string    // the first failed or wrong op's error
	problems []string  // failed end-of-phase checks
	elapsed  time.Duration
}

func (ph phase) itemsPerS() float64 { return float64(ph.items) / ph.elapsed.Seconds() }

var (
	errFailed = errors.New("operation failed")
	errWrong  = errors.New("wrong output")
)

// loop runs op back to back until until passes. op returns the items it
// classified; an error wrapping errFailed or errWrong is counted and the loop
// goes on, any other error ends it.
func loop(until time.Time, op func(i int) (int, error)) (phase, error) {
	var ph phase
	start := time.Now()
	for i := 0; time.Now().Before(until); i++ {
		t := time.Now()
		n, err := op(i)
		ph.latMS = append(ph.latMS, float64(time.Since(t).Nanoseconds())/1e6)
		ph.items += n
		switch {
		case err == nil:
			continue
		case errors.Is(err, errFailed):
			ph.failed++
		case errors.Is(err, errWrong):
			ph.wrong++
		default:
			return ph, err
		}
		if ph.firstBad == "" {
			ph.firstBad = err.Error()
		}
	}
	ph.elapsed = time.Since(start)
	return ph, nil
}

func after(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}

// bench runs one workload as cfg describes.
func bench(cfg config) (*result, error) {
	spec, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want surface, chip or serve)", cfg.workload)
	}
	r := &result{e2e: map[string]float64{}, layers: map[string]float64{}, diag: map[string]any{}}
	steal0, stealOK := stealSeconds()
	r.diag["calib_ms_before"] = calibrate()

	var w workload
	var setupS []float64
	setupLayers := map[string][]float64{}
	for i := 0; i < cfg.size.setups; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		lt := map[string]float64{}
		start := time.Now()
		nw, err := spec.build(cfg, lt)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		for k, v := range lt {
			setupLayers[k] = append(setupLayers[k], v)
		}
		w = nw
	}
	defer w.close()
	// setup_s ends here: the check pass below is the benchmark's own
	// verification and runs once, not once per set-up.
	r.e2e["setup_s"] = median(setupS)
	for k, v := range setupLayers {
		r.layers[k] = median(v)
	}

	if err := w.check(r); err != nil {
		return nil, fmt.Errorf("check pass: %w", err)
	}
	var phases []phase // every phase's ops are attempted and checked
	run := func(seconds float64, tr *tracer) (phase, error) {
		ph, err := w.measure(after(seconds), tr)
		if err == nil {
			phases = append(phases, ph)
		}
		return ph, err
	}
	if _, err := run(min(0.5, cfg.seconds/10), nil); err != nil { // warm-up
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	// max_rss_mb covers the measured phase: return set-up garbage to the
	// OS, then restart the kernel's peak record.
	runtime.GC()
	debug.FreeOSMemory()
	peakReset := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
	if !cfg.trace {
		ph, err := run(cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		p50, tail, err := percentiles(ph.latMS, spec.tailPct)
		if err != nil {
			return nil, fmt.Errorf("op_ms_tail: %w", err)
		}
		r.e2e["items_per_s"] = ph.itemsPerS()
		r.e2e["op_ms_p50"] = p50
		r.e2e["op_ms_tail"] = tail
		r.note("op_ms_tail is p%g of %d ops", spec.tailPct, len(ph.latMS))
	} else {
		plain, err := run(cfg.seconds/2, nil)
		if err != nil {
			return nil, err
		}
		tr := &tracer{}
		traced, err := run(cfg.seconds/2, tr)
		if err != nil {
			return nil, err
		}
		if err := w.layers(r, tr); err != nil {
			return nil, fmt.Errorf("per-layer metrics: %w", err)
		}
		r.layers["trace.overhead_frac"] = 1 - traced.itemsPerS()/plain.itemsPerS()
		r.note("items_per_s untraced %.6g, traced %.6g", plain.itemsPerS(), traced.itemsPerS())
	}
	for _, ph := range phases {
		r.attempted += len(ph.latMS)
		r.failed += ph.failed + ph.wrong
		if ph.failed+ph.wrong > 0 {
			r.problem("%d failed and %d wrong ops, first: %s", ph.failed, ph.wrong, ph.firstBad)
		}
		r.problems = append(r.problems, ph.problems...)
	}

	r.diag["calib_ms_after"] = calibrate()
	if steal1, ok := stealSeconds(); ok && stealOK {
		r.diag["steal_s"] = steal1 - steal0
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	if !peakReset {
		r.note("max_rss_mb covers the whole process: the peak record could not be reset")
	}
	r.e2e["max_rss_mb"] = rss
	return r, nil
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// calibrate times a fixed loop owned by the benchmark. It is reported next
// to the metrics to show how fast the host ran, and never rescales them.
func calibrate() float64 {
	start := time.Now()
	x, f := uint64(88172645463325252), 0.0
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		f += float64(x>>11) * 0x1p-53
	}
	calibSink = f
	return float64(time.Since(start).Nanoseconds()) / 1e6
}

var calibSink float64

// stealSeconds reads the host's cumulative steal time from /proc/stat.
func stealSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0, false
	}
	return ticks / 100, true // USER_HZ
}

// commit returns the VCS revision the binary was built from, when known.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

type outMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]outMetric `json:"metrics"`
}

// report prints the notes, the diagnostics, and as the last line the
// result object.
func report(w io.Writer, cfg config, r *result) error {
	r.diag["workload"] = cfg.workload
	r.diag["seed"] = cfg.seed
	r.diag["commit"] = commit()
	r.diag["go"] = runtime.Version()
	r.diag["nproc"] = runtime.NumCPU()
	r.diag["gomaxprocs"] = runtime.GOMAXPROCS(0)
	defs, values := endToEnd, r.e2e
	if cfg.trace {
		defs, values = perLayer, r.layers
		for _, d := range endToEnd { // set-up and accuracy are measured in traced runs too
			if v, ok := r.e2e[d.name]; ok {
				r.note("%s = %.6g %s", d.name, v, d.unit)
			}
		}
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", p)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	diag, err := json.Marshal(r.diag)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# diag %s\n", diag)
	out := output{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]outMetric{}}
	names := make([]string, 0, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %g", d.name, v)
		}
		out.Metrics[d.name] = outMetric{Value: v, Unit: d.unit}
		names = append(names, d.name)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "# %-28s %.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	cfg := config{size: fullSize}
	fs.StringVar(&cfg.workload, "workload", "", "surface, chip or serve")
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: derives the evaluated digits, sampled copies and request sequences")
	fs.Float64Var(&cfg.seconds, "seconds", 14, "length of the measured phase in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for temporary model files")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	cfg.trace = *traceFlag == 1
	if cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	r, err := bench(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, r); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: report: %v\n", err)
		os.Exit(1)
	}
	if len(r.problems) > 0 {
		os.Exit(1)
	}
}

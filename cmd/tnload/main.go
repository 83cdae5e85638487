// Command tnload is the in-repo open-loop load generator for the serving
// tier. It drives sustained Poisson-arrival traffic at a target rate against
// a tnserve worker or router, mixing exact and confidence-gated ensemble
// requests, and reports p50/p99/p999 latency, achieved throughput (goodput),
// and the shed rate the admission controller produced. Being open-loop, it
// does not slow down when the server does — the property that exposes
// latency collapse and load shedding near saturation, which closed-loop
// benchmarks hide.
//
// Usage:
//
//	tnload -url http://localhost:8080 -rate 5000 -duration 30s
//	tnload -url http://router:8080 -rate 20000 -approx 0.5 -out report.json
//	tnload -url http://router:8080 -check 16 -replicas http://r1:8081,http://r2:8082
//
// With -check N it additionally (or, with -rate 0, exclusively) runs N
// parity probes: each probe's body is posted twice to the router and twice
// to every -replicas URL directly, and all responses must be byte-identical
// — the end-to-end enforcement of the shard-invariant determinism contract
// (docs/DETERMINISM.md). With -out the load report is also written as
// indented JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		url      = flag.String("url", "http://localhost:8080", "base URL of the router or server under test")
		rate     = flag.Float64("rate", 1000, "target arrival rate, requests/second (0 = skip the load run)")
		duration = flag.Duration("duration", 10*time.Second, "measured load duration")
		warmup   = flag.Duration("warmup", 2*time.Second, "unmeasured warmup preceding measurement")
		models   = flag.String("model", "", "comma-separated model names (default: every model on /v1/models)")
		spf      = flag.Int("spf", 4, "spikes-per-frame per item")
		items    = flag.Int("items", 1, "inputs per request")
		seeds    = flag.Int("seeds", 64, "distinct request seeds cycled (shard spread / warm-cache working set)")
		approx   = flag.Float64("approx", 0, "fraction of requests sent as confidence-gated ensembles")
		copies   = flag.Int("copies", 16, "ensemble copy budget of the approximate share")
		conf     = flag.Float64("conf", 0.99, "confidence threshold of the approximate share")
		genSeed  = flag.Uint64("gen-seed", 1, "generator seed: arrivals and request mix replay for a fixed seed")
		maxOut   = flag.Int("max-outstanding", 4096, "cap on concurrent in-flight requests")

		check    = flag.Int("check", 0, "run this many cross-replica parity probes")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs probed directly by -check")
		churn    = flag.String("churn", "", `fleet-churn plan run concurrently with the load: ';'-separated "OFFSET OP URL [PATH]" ops (join/leave/drain/restore via the router's /admin/backends, snapshot via the worker's /admin/snapshot); offsets count from load start, warmup included`)

		out = flag.String("out", "", "also write the load report to this file as JSON")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	catalog, err := fetchModels(nil, *url)
	if err != nil {
		fatal(fmt.Errorf("discover models at %s: %w", *url, err))
	}
	targets := pickModels(catalog, *models)
	if len(targets) == 0 {
		fatal(fmt.Errorf("no target models (server catalog: %v)", names(catalog)))
	}

	if *check > 0 {
		var reps []string
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		n, err := parityCheck(nil, *url, reps, targets, *check, *genSeed)
		if err != nil {
			fatal(fmt.Errorf("parity check failed after %d probes: %w", n, err))
		}
		fmt.Printf("parity: %d probes x %d targets x 2 posts byte-identical\n", *check, 1+len(reps))
	}
	if *rate <= 0 {
		return
	}

	cfg := loadConfig{
		URL: *url, Rate: *rate, Duration: *duration, Warmup: *warmup,
		Models: targets, SPF: *spf, Items: *items, Seeds: *seeds,
		ApproxFrac: *approx, Copies: *copies, Conf: *conf,
		GenSeed: *genSeed, MaxOutstanding: *maxOut,
	}
	var churnOps []churnOp
	if *churn != "" {
		churnOps, err = parseChurnPlan(*churn)
		if err != nil {
			fatal(err)
		}
	}
	fmt.Printf("tnload: %s rate=%g/s duration=%s warmup=%s models=%v approx=%.2f churn_ops=%d\n",
		*url, *rate, *duration, *warmup, names(targets), *approx, len(churnOps))
	var churnResults []churnResult
	churnDone := make(chan struct{})
	if len(churnOps) > 0 {
		go func() {
			defer close(churnDone)
			churnResults = runChurn(ctx, nil, *url, churnOps)
		}()
	} else {
		close(churnDone)
	}
	report, err := runLoad(ctx, cfg)
	if err != nil {
		fatal(err)
	}
	<-churnDone

	fmt.Printf("requests   %8d  (ok %d, shed %d, errors %d, overflow %d)\n",
		report.Requests, report.OK, report.Shed, report.Errors, report.Overflow)
	fmt.Printf("goodput    %8.1f req/s of %.1f offered (shed rate %.2f%%)\n",
		report.AchievedRPS, report.TargetRate, 100*report.ShedRate)
	fmt.Printf("latency ms p50 %.2f  p99 %.2f  p999 %.2f  max %.2f  mean %.2f\n",
		report.P50MS, report.P99MS, report.P999MS, report.MaxMS, report.MeanMS)
	if len(report.ReplicaRequests) > 0 {
		for _, u := range sortedKeys(report.ReplicaRequests) {
			fmt.Printf("replica    %8d  %s\n", report.ReplicaRequests[u], u)
		}
	}
	churnFailed := false
	for _, res := range churnResults {
		status := "ok"
		if res.Err != nil {
			status = res.Err.Error()
			churnFailed = true
		}
		fmt.Printf("churn      %8s  %-8s %s  %s\n", res.Op.At, res.Op.Op, res.Op.URL, status)
	}

	if *out != "" {
		raw, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote report to %s\n", *out)
	}
	if churnFailed {
		fatal(fmt.Errorf("one or more churn operations failed (see above)"))
	}
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// pickModels filters the discovered catalog down to the -model selection
// (all of it when the flag is empty).
func pickModels(catalog []loadModel, sel string) []loadModel {
	if strings.TrimSpace(sel) == "" {
		return catalog
	}
	want := map[string]bool{}
	for _, name := range strings.Split(sel, ",") {
		if name = strings.TrimSpace(name); name != "" {
			want[name] = true
		}
	}
	var out []loadModel
	for _, m := range catalog {
		if want[m.Name] {
			out = append(out, m)
		}
	}
	return out
}

func names(ms []loadModel) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tnload:", err)
	os.Exit(1)
}

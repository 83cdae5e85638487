package main

import (
	"bytes"
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
)

// demoWorker boots one worker serving the seed-determined demo model.
func demoWorker(t *testing.T) *httptest.Server {
	t.Helper()
	reg := serve.NewRegistry()
	if _, err := reg.RegisterDemo(); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Config{MaxBatch: 8})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// demoFleet boots n demo workers behind a router and returns the router's
// URL and the workers' URLs.
func demoFleet(t *testing.T, n int) (string, []string) {
	t.Helper()
	urls := make([]string, n)
	for i := range urls {
		urls[i] = demoWorker(t).URL
	}
	rt, err := serve.NewRouter(urls, serve.RouterConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(func() { front.Close(); rt.Close() })
	return front.URL, urls
}

// TestFetchModelsAndBuildBodies: catalog discovery round-trips through
// /v1/models, and the body generator replays byte-identically per GenSeed.
func TestFetchModelsAndBuildBodies(t *testing.T) {
	ts := demoWorker(t)
	models, err := fetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "demo" || models[0].InputDim != 64 {
		t.Fatalf("catalog %+v", models)
	}

	cfg := loadConfig{Models: models, ApproxFrac: 0.5, GenSeed: 9}.withDefaults()
	ex1, ap1, err := buildBodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex2, ap2, err := buildBodies(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for s := range ex1[0] {
		if !bytes.Equal(ex1[0][s], ex2[0][s]) || !bytes.Equal(ap1[0][s], ap2[0][s]) {
			t.Fatalf("seed %d: bodies differ across builds with one GenSeed", s)
		}
	}
	if bytes.Equal(ex1[0][0], ex1[0][1]) {
		t.Fatal("distinct seeds produced identical bodies")
	}
	cfg2 := cfg
	cfg2.GenSeed = 10
	ex3, _, err := buildBodies(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ex1[0][0], ex3[0][0]) {
		t.Fatal("different GenSeeds produced identical bodies")
	}
}

// TestRunLoadAgainstLiveServer: a short low-rate run against a live demo
// server completes with consistent accounting — every measured arrival is an
// OK, a shed, an error, or an overflow, and goodput/latency are populated.
func TestRunLoadAgainstLiveServer(t *testing.T) {
	ts := demoWorker(t)
	models, err := fetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	report, err := runLoad(context.Background(), loadConfig{
		URL: ts.URL, Rate: 200, Duration: 300 * time.Millisecond, Warmup: 100 * time.Millisecond,
		Models: models, Seeds: 8, ApproxFrac: 0.25, Copies: 4, GenSeed: 2,
		Client: ts.Client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Requests == 0 {
		t.Fatal("no measured arrivals in a 300ms run at 200/s")
	}
	if got := report.OK + report.Shed + report.Errors + report.Overflow; got != report.Requests {
		t.Fatalf("accounting: ok %d + shed %d + errors %d + overflow %d != requests %d",
			report.OK, report.Shed, report.Errors, report.Overflow, report.Requests)
	}
	if report.Errors != 0 {
		t.Fatalf("%d errors against a healthy server", report.Errors)
	}
	if report.OK == 0 || report.AchievedRPS <= 0 {
		t.Fatalf("no goodput recorded: %+v", report)
	}
	if report.P50MS <= 0 || report.P99MS < report.P50MS || report.P999MS < report.P99MS ||
		report.MaxMS < report.P999MS {
		t.Fatalf("latency quantiles out of order: %+v", report)
	}
	if report.TargetRate != 200 || report.DurationS != 0.3 {
		t.Fatalf("target rate %v, duration %vs; want 200 and the full 0.3s window", report.TargetRate, report.DurationS)
	}

	// Config validation.
	if _, err := runLoad(context.Background(), loadConfig{URL: ts.URL, Rate: 100, Duration: time.Second}); err == nil {
		t.Fatal("load run without models accepted")
	}
	if _, err := runLoad(context.Background(), loadConfig{URL: ts.URL, Models: models}); err == nil {
		t.Fatal("load run without rate accepted")
	}
}

// TestRunLoadCancelDuringLongGap: cancelling a low-rate run while the
// generator waits out a long arrival gap returns at once, and the report's
// window is the time actually run, not the configured Duration.
func TestRunLoadCancelDuringLongGap(t *testing.T) {
	ts := demoWorker(t)
	models, err := fetchModels(ts.Client(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	const rate, genSeed = 0.2, 1
	// The first arrival launches at once; the wait before the second is the
	// first draw of the arrival stream (see runLoad's expGap).
	gap := -math.Log(rng.Float64(rng.NewPCG32(genSeed, 4))) / rate
	if gap < 2 {
		t.Fatalf("gen seed %d: second arrival after %.2fs; the test needs a gap of seconds", genSeed, gap)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	cfg := loadConfig{
		URL: ts.URL, Rate: rate, Duration: 30 * time.Second,
		Models: models, GenSeed: genSeed, Client: ts.Client(),
	}
	begin := time.Now()
	report, err := runLoad(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(begin); took >= time.Second {
		t.Fatalf("cancelled run returned after %v (second arrival due at %.2fs)", took, gap)
	}
	if report.DurationS <= 0 || report.DurationS >= cfg.Duration.Seconds() {
		t.Fatalf("duration %vs, want the ~0.05s actually run", report.DurationS)
	}
	if report.Requests != 1 || report.OK != 1 {
		t.Fatalf("%d requests (%d ok), want the one launched before the gap", report.Requests, report.OK)
	}
}

// TestQuantileNearestRank: the nearest-rank picks match hand-computed ranks.
func TestQuantileNearestRank(t *testing.T) {
	sorted := []int64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 9e6, 10e6}
	if q := quantileMS(sorted, 0.50); q != 5 {
		t.Fatalf("p50 = %v, want 5", q)
	}
	if q := quantileMS(sorted, 0.99); q != 10 {
		t.Fatalf("p99 = %v, want 10", q)
	}
	if q := quantileMS(sorted, 0.10); q != 1 {
		t.Fatalf("p10 = %v, want 1", q)
	}
	if q := quantileMS(nil, 0.5); q != 0 {
		t.Fatalf("empty quantile %v", q)
	}
}

// TestParityCheckCatchesDivergence: a replica that answers differently from
// the router must fail the parity probe — the check is not vacuous.
func TestParityCheckCatchesDivergence(t *testing.T) {
	tsA := demoWorker(t)
	// A fleet-violating replica: same geometry, different weight seed.
	reg := serve.NewRegistry()
	net, err := serve.DemoNetwork(2017, 64, 128, 10)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("demo", net, nil); err != nil {
		t.Fatal(err)
	}
	srv := serve.NewServer(reg, serve.Config{MaxBatch: 8})
	tsB := httptest.NewServer(srv.Handler())
	defer func() { tsB.Close(); srv.Close() }()

	models, err := fetchModels(tsA.Client(), tsA.URL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := parityCheck(tsA.Client(), tsA.URL, []string{tsA.URL}, models, 4, 1); err != nil {
		t.Fatalf("identical replicas failed parity: %v", err)
	}
	if _, err := parityCheck(tsA.Client(), tsA.URL, []string{tsB.URL}, models, 8, 1); err == nil {
		t.Fatal("divergent replica passed the parity check")
	}
}

// TestRouterParityCheckAndModels: the parity probe passes against a live
// fleet — the router and every replica answer byte-identically — with the
// catalog discovered through the router's /v1/models.
func TestRouterParityCheckAndModels(t *testing.T) {
	front, replicas := demoFleet(t, 3)
	models, err := fetchModels(nil, front)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "demo" || models[0].InputDim != 64 {
		t.Fatalf("catalog via router = %+v", models)
	}
	n := 12
	if testing.Short() {
		n = 6
	}
	if _, err := parityCheck(nil, front, replicas, models, n, 1); err != nil {
		t.Fatalf("parity across the fleet: %v", err)
	}
}

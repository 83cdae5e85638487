// Fleet-churn chaos harness: the pinning suite of the warm rolling-restart
// story. A real fleet of restartable in-process replicas takes continuous
// traffic while the tests drain, snapshot, stop, restart, restore, join, and
// leave them — asserting the properties the serving tier sells: zero failed
// requests, byte-identical responses throughout (the shard-invariance
// contract holding under churn), minimal keyspace movement, and replicas
// that rejoin warm.
package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/nn"
)

// chaosReplica is a restartable in-process tnserve worker bound to a fixed
// address, mirroring the binary's lifecycle: boot restores the snapshot when
// one exists, graceful stop drains the batcher and (optionally) writes one.
type chaosReplica struct {
	t        *testing.T
	nets     map[string]*nn.Network
	cfg      Config
	addr     string
	snapPath string

	mu  sync.Mutex
	reg *Registry
	srv *Server
	hs  *http.Server
}

func newChaosReplica(t *testing.T, nets map[string]*nn.Network, cfg Config, snapPath string) *chaosReplica {
	t.Helper()
	c := &chaosReplica{t: t, nets: nets, cfg: cfg, snapPath: snapPath}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c.addr = l.Addr().String()
	c.serve(l)
	t.Cleanup(func() { c.stop(false) })
	return c
}

func (c *chaosReplica) url() string { return "http://" + c.addr }

// start boots the replica again on its fixed address. Go listeners set
// SO_REUSEADDR, so rebinding right after a stop works.
func (c *chaosReplica) start() {
	c.t.Helper()
	l, err := net.Listen("tcp", c.addr)
	if err != nil {
		c.t.Fatalf("rebind %s: %v", c.addr, err)
	}
	c.serve(l)
}

func (c *chaosReplica) serve(l net.Listener) {
	c.t.Helper()
	reg := NewRegistry()
	restored := false
	if c.snapPath != "" {
		if _, err := os.Stat(c.snapPath); err == nil {
			if _, err := reg.RestoreSnapshotFile(c.snapPath); err != nil {
				c.t.Logf("chaos replica %s: snapshot restore failed (%v): cold start", c.addr, err)
			} else {
				restored = true
			}
		}
	}
	if !restored {
		for name, n := range c.nets {
			if _, err := reg.Register(name, n, nil); err != nil {
				c.t.Fatal(err)
			}
		}
	}
	cfg := c.cfg
	cfg.SnapshotPath = c.snapPath
	srv := NewServer(reg, cfg)
	hs := &http.Server{Handler: srv.Handler()}
	c.mu.Lock()
	c.reg, c.srv, c.hs = reg, srv, hs
	c.mu.Unlock()
	go hs.Serve(l)
}

// stop shuts the replica down gracefully — HTTP handlers drained, then the
// batcher — and, when snapshot is true, writes the registry snapshot the
// next start restores (tnserve's -snapshot-file drain path).
func (c *chaosReplica) stop(snapshot bool) {
	c.t.Helper()
	c.mu.Lock()
	reg, srv, hs := c.reg, c.srv, c.hs
	c.reg, c.srv, c.hs = nil, nil, nil
	c.mu.Unlock()
	if hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		c.t.Errorf("chaos replica %s shutdown: %v", c.addr, err)
	}
	srv.Close()
	if snapshot && c.snapPath != "" {
		if _, err := reg.WriteSnapshotFile(c.snapPath); err != nil {
			c.t.Errorf("chaos replica %s snapshot on drain: %v", c.addr, err)
		}
	}
}

// server returns the currently running Server (nil while stopped).
func (c *chaosReplica) server() *Server {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srv
}

// waitHTTPHealthy polls url's /healthz until it answers 200.
func waitHTTPHealthy(t *testing.T, url string) {
	t.Helper()
	client := &http.Client{Timeout: 200 * time.Millisecond}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("replica %s never became healthy after restart", url)
}

// TestChaosRollingRestartFleet is the headline chaos scenario: a 4-replica
// fleet under continuous traffic goes through a full rolling restart — each
// replica drained from the router, stopped with a snapshot, restarted with a
// restore, and put back on the ring. The run must produce zero failed
// requests, every response byte-identical to the goldens captured on the
// healthy fleet (themselves verified against the offline fast path), the
// identical key assignment after the roll (no permanent keyspace movement),
// and restored replicas that serve their working set without resampling.
func TestChaosRollingRestartFleet(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 14, 8, 3)}
	dir := t.TempDir()
	const fleetSize = 4
	reps := make([]*chaosReplica, fleetSize)
	urls := make([]string, fleetSize)
	for i := range reps {
		reps[i] = newChaosReplica(t, nets, Config{MaxBatch: 8},
			filepath.Join(dir, fmt.Sprintf("rep%d.snap", i)))
		urls[i] = reps[i].url()
	}
	rt, err := NewRouter(urls, RouterConfig{HealthInterval: -1, Attempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Probe set: fixed seeds over one model. Goldens come from the healthy
	// fleet and are verified against the offline fast path, so byte equality
	// during churn is equality with the no-serve-machinery reference.
	seeds := 24
	if testing.Short() {
		seeds = 12
	}
	x := make([]float64, 14)
	for i := range x {
		x[i] = float64(i%5) * 0.2
	}
	reqFor := func(s int) ClassifyRequest {
		return ClassifyRequest{Model: "m", Seed: uint64(s), SPF: 2, Input: x}
	}
	golden := make([]string, seeds)
	owner0 := make([]string, seeds)
	for s := 0; s < seeds; s++ {
		resp, got, raw := postClassify(t, front.Client(), front.URL, reqFor(s))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("golden seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
		want := directResults(t, nets["m"], uint64(s), [][]float64{x}, 2)[0]
		if got.Results[0].Class != want.Class {
			t.Fatalf("golden seed %d: class %d, offline %d", s, got.Results[0].Class, want.Class)
		}
		golden[s] = raw
		owner0[s] = resp.Header.Get(ReplicaHeader)
	}

	// Continuous drivers: loop the probe set, byte-compare every response.
	var (
		stop     = make(chan struct{})
		wg       sync.WaitGroup
		served   atomic.Int64
		failures = make(chan error, 1024)
	)
	fail := func(err error) {
		select {
		case failures <- err:
		default:
		}
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second}
			for i := g; ; i = (i + 1) % seeds {
				select {
				case <-stop:
					return
				default:
				}
				resp, _, raw := postClassify(t, client, front.URL, reqFor(i))
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("seed %d during churn: status %d: %s", i, resp.StatusCode, raw))
					continue
				}
				if raw != golden[i] {
					fail(fmt.Errorf("seed %d during churn: response diverged from golden:\n%s\n%s", i, raw, golden[i]))
				}
				served.Add(1)
			}
		}(g)
	}

	// The rolling restart: drain → stop(+snapshot) → start(restore) → healthz
	// → back on the ring, one replica at a time, traffic never pausing.
	time.Sleep(20 * time.Millisecond)
	for _, rep := range reps {
		if err := rt.Drain(rep.url()); err != nil {
			t.Fatal(err)
		}
		rep.stop(true)
		rep.start()
		waitHTTPHealthy(t, rep.url())

		// Warmth: post this replica's own pre-restart keys directly at it (it
		// is off the ring, so only we reach it) — all must come from the
		// restored cache, zero sample misses beyond the restore's own warming.
		srv := rep.server()
		stats0 := srv.Stats().Models["m"]
		owned := 0
		client := &http.Client{Timeout: 10 * time.Second}
		for s := 0; s < seeds; s++ {
			if owner0[s] != rep.url() {
				continue
			}
			owned++
			resp, _, raw := postClassify(t, client, rep.url(), reqFor(s))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("restored %s seed %d: status %d: %s", rep.url(), s, resp.StatusCode, raw)
			}
			if raw != golden[s] {
				t.Fatalf("restored %s seed %d: direct response diverged from golden", rep.url(), s)
			}
		}
		if owned > 0 {
			stats1 := rep.server().Stats().Models["m"]
			if misses := stats1.SampleCacheMisses - stats0.SampleCacheMisses; misses != 0 {
				t.Fatalf("restored %s resampled %d of its %d owned keys — the snapshot did not rejoin it warm",
					rep.url(), misses, owned)
			}
		}

		if err := rt.Restore(rep.url()); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	close(stop)
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Error(err)
	}
	if served.Load() < int64(seeds) {
		t.Fatalf("drivers completed only %d requests across the whole roll", served.Load())
	}
	if st := rt.Stats(); st.Unroutable != 0 {
		t.Fatalf("router went unroutable %d times during a 3/4-capacity roll", st.Unroutable)
	}

	// No permanent keyspace movement: with the full fleet back, every seed is
	// owned by exactly the replica that owned it before the roll.
	for s := 0; s < seeds; s++ {
		resp, _, raw := postClassify(t, front.Client(), front.URL, reqFor(s))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-roll seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
		if raw != golden[s] {
			t.Fatalf("post-roll seed %d: response diverged from golden", s)
		}
		if owner := resp.Header.Get(ReplicaHeader); owner != owner0[s] {
			t.Fatalf("post-roll seed %d owned by %s, before the roll by %s — a full roll must move nothing",
				s, owner, owner0[s])
		}
	}
}

// TestChaosMembershipChurnUnderTraffic races live Submit traffic against
// continuous join/leave/drain/restore cycles and stats reads. Run under
// -race this pins the copy-on-write membership table and atomic ring swap;
// functionally it asserts traffic sees zero errors while the fleet changes.
func TestChaosMembershipChurnUnderTraffic(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 3, nets, Config{MaxBatch: 8}, RouterConfig{Attempts: 3})
	extra := addBackend(t, f, nets, Config{MaxBatch: 8})

	const seedSpace = 32
	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.3
	}
	want := make([]int, seedSpace)
	for s := range want {
		want[s] = directResults(t, nets["m"], uint64(s), [][]float64{x}, 1)[0].Class
	}

	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	deadline := time.Now().Add(dur)
	errs := make(chan error, 4096)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := g; time.Now().Before(deadline); s++ {
				seed := uint64(s % seedSpace)
				resp, got, raw := postClassify(t, f.front.Client(), f.front.URL,
					ClassifyRequest{Model: "m", Seed: seed, Input: x})
				if resp.StatusCode != http.StatusOK {
					fail(fmt.Errorf("seed %d: status %d during churn: %s", seed, resp.StatusCode, raw))
					continue
				}
				if got.Results[0].Class != want[seed] {
					fail(fmt.Errorf("seed %d: class %d during churn, offline %d", seed, got.Results[0].Class, want[seed]))
				}
			}
		}(g)
	}
	// The churner: a full membership cycle per iteration, every op expected
	// to succeed — the traffic above must never notice.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			for _, step := range []func() error{
				func() error { return f.router.Join(extra) },
				func() error { return f.router.Drain(f.backends[1].URL) },
				func() error { return f.router.Restore(f.backends[1].URL) },
				func() error { return f.router.Leave(extra) },
			} {
				if err := step(); err != nil {
					fail(fmt.Errorf("churn op: %w", err))
				}
			}
		}
	}()
	// A stats/membership reader racing the copy-on-write swaps.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Now().Before(deadline) {
			st := f.router.Stats()
			if len(st.Replicas) < 3 {
				fail(fmt.Errorf("stats saw %d replicas mid-churn, want >= 3", len(st.Replicas)))
			}
			f.router.Backends()
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRollingRestartBench is the env-gated measurement behind BENCH_8.json:
//
//	CHAOS_BENCH_OUT=BENCH_8.json go test ./internal/serve -run TestRollingRestartBench -v
//
// It measures (a) a restored replica's first-request latency against a
// cold-started one over an ensemble working set — asserting the >= 5x warm
// advantage the snapshot exists for — and (b) a rolling restart of a
// 4-replica fleet under open-loop load, warm (snapshot) versus cold restarts:
// ambient p99 across each roll plus the rejoin first-touch latency of every
// restarted replica's own keyspace.
func TestRollingRestartBench(t *testing.T) {
	out := os.Getenv("CHAOS_BENCH_OUT")
	if out == "" {
		t.Skip("set CHAOS_BENCH_OUT to a BENCH json path to run the rolling-restart measurement")
	}
	// The model must be big enough that drawing a sampled copy dwarfs HTTP
	// and batching overhead — 512 neurons x 128 inputs is ~65k weights per
	// copy, so a 16-copy cold first request pays ~1M weight draws.
	nets := map[string]*nn.Network{"m": testNet(t, 7, 128, 512, 4)}
	dir := t.TempDir()
	cfg := Config{MaxBatch: 8}

	// (a) First-request latency, warm vs cold, ensemble working set.
	const benchSeeds, copies = 3, 16
	conf := 0.0 // exact: every copy sampled and evaluated
	x := make([]float64, 128)
	for i := range x {
		x[i] = float64(i%7) * 0.14
	}
	reqFor := func(s int) ClassifyRequest {
		return ClassifyRequest{Model: "m", Seed: uint64(s), SPF: 1, Input: x, Copies: copies, Conf: &conf}
	}
	rep := newChaosReplica(t, nets, cfg, filepath.Join(dir, "bench.snap"))
	client := &http.Client{Timeout: 30 * time.Second}
	for s := 0; s < benchSeeds; s++ { // build the working set
		if resp, _, raw := postClassify(t, client, rep.url(), reqFor(s)); resp.StatusCode != http.StatusOK {
			t.Fatalf("warmup seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
	}
	firstRequestMS := func() []float64 {
		ms := make([]float64, benchSeeds)
		for s := 0; s < benchSeeds; s++ {
			begin := time.Now()
			if resp, _, raw := postClassify(t, client, rep.url(), reqFor(s)); resp.StatusCode != http.StatusOK {
				t.Fatalf("bench seed %d: status %d: %s", s, resp.StatusCode, raw)
			}
			ms[s] = float64(time.Since(begin).Microseconds()) / 1000
		}
		return ms
	}
	rep.stop(true) // writes the snapshot
	rep.start()    // restores it
	waitHTTPHealthy(t, rep.url())
	warmMS := firstRequestMS()
	rep.stop(false)
	if err := os.Remove(rep.snapPath); err != nil {
		t.Fatal(err)
	}
	rep.start() // cold: no snapshot to restore
	waitHTTPHealthy(t, rep.url())
	coldMS := firstRequestMS()
	median := func(v []float64) float64 {
		s := append([]float64(nil), v...)
		sort.Float64s(s)
		return s[len(s)/2]
	}
	warm, cold := median(warmMS), median(coldMS)
	ratio := cold / warm
	t.Logf("first request after restart: warm %.3fms, cold %.3fms (%.1fx)", warm, cold, ratio)
	if ratio < 5 {
		t.Errorf("warm restart first-request advantage %.1fx, want >= 5x", ratio)
	}

	// (b) A rolling restart of a 4-replica fleet under open-loop load, warm
	// (snapshot) versus cold. Two measurements come out of each roll:
	//
	//   - the ambient open-loop p99 across the whole run. On a multi-core
	//     host this is where a cold roll's shard stampede shows up; on a
	//     single-core host the warm roll's boot-time rewarm burst shares the
	//     one CPU with live traffic and inflates this number instead, so it
	//     is recorded as context rather than asserted on.
	//   - rejoin first-touch: right after each restarted replica boots and
	//     before it is restored to the ring, every (model, seed) body it owns
	//     is posted straight at it. Off-ring, only the test can reach it, so
	//     the probe is race-free: it is exactly the first request its shard
	//     would see after rejoin. Warm boots answer from the restored cache;
	//     cold boots pay the resample. This is the stampede metric, and it is
	//     asserted on.
	rollP99 := func(warmRoll bool) (LoadReport, []float64) {
		fdir := t.TempDir()
		const fleetSize = 4
		reps := make([]*chaosReplica, fleetSize)
		urls := make([]string, fleetSize)
		for i := range reps {
			reps[i] = newChaosReplica(t, nets, cfg, filepath.Join(fdir, fmt.Sprintf("rep%d.snap", i)))
			urls[i] = reps[i].url()
		}
		rt, err := NewRouter(urls, RouterConfig{HealthInterval: -1, Attempts: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		front := httptest.NewServer(rt.Handler())
		defer front.Close()

		models, err := FetchModels(nil, front.URL)
		if err != nil {
			t.Fatal(err)
		}
		// Sized for the 1-cpu CI box: the offered rate must sit well under the
		// fleet's single-core capacity so the tail reflects restart cost, not
		// saturation backlog, and the per-replica working set must stay small
		// enough that boot-time rewarming is a blip rather than a stall.
		lcfg := LoadConfig{
			URL: front.URL, Rate: 40, Duration: 6 * time.Second, Warmup: time.Second,
			Models: models, SPF: 1, Seeds: 6, ApproxFrac: 1, Copies: 8, Conf: 0.99,
			GenSeed: 1,
		}
		// The rejoin probes replay the generator's own bodies, so a probe hits
		// exactly the cache keys the load traffic warmed (ApproxFrac 1: the
		// ensemble bodies are the only ones in flight).
		_, probeBodies, err := buildBodies(lcfg.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		probeClient := &http.Client{Timeout: 30 * time.Second}
		var rejoinMS []float64
		done := make(chan struct{})
		go func() {
			defer close(done)
			time.Sleep(lcfg.Warmup + 200*time.Millisecond)
			// Attribute each body to its owning replica via the response
			// header; these are bodies the load already cycles, so the extra
			// posts are a no-op for cache state.
			owned := make(map[string][][]byte)
			for mi := range probeBodies {
				for si := range probeBodies[mi] {
					raw := probeBodies[mi][si].raw
					resp, err := probeClient.Post(front.URL+"/v1/classify", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					rep := resp.Header.Get(ReplicaHeader)
					if resp.StatusCode != http.StatusOK || rep == "" {
						t.Errorf("ownership probe: status %d, replica %q", resp.StatusCode, rep)
						return
					}
					owned[rep] = append(owned[rep], raw)
				}
			}
			for _, r := range reps {
				begin := time.Now()
				if err := rt.Drain(r.url()); err != nil {
					t.Error(err)
					return
				}
				drained := time.Now()
				r.stop(warmRoll) // cold roll: no snapshot written
				if !warmRoll {
					os.Remove(r.snapPath)
				}
				stopped := time.Now()
				r.start()
				waitHTTPHealthy(t, r.url())
				booted := time.Now()
				for _, raw := range owned[r.url()] { // off-ring: first touch of its shard
					pb := time.Now()
					resp, err := probeClient.Post(r.url()+"/v1/classify", "application/json", bytes.NewReader(raw))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						t.Errorf("rejoin probe: status %d", resp.StatusCode)
						return
					}
					rejoinMS = append(rejoinMS, float64(time.Since(pb).Microseconds())/1000)
				}
				if err := rt.Restore(r.url()); err != nil {
					t.Error(err)
					return
				}
				t.Logf("roll(warm=%v) %s: drain %s, stop %s, boot %s, %d rejoin probes", warmRoll, r.url(),
					drained.Sub(begin), stopped.Sub(drained), booted.Sub(stopped), len(owned[r.url()]))
				time.Sleep(200 * time.Millisecond)
			}
		}()
		report, err := RunLoad(context.Background(), lcfg)
		if err != nil {
			t.Fatal(err)
		}
		<-done
		if report.Errors != 0 {
			t.Errorf("rolling restart (warm=%v) produced %d failed requests", warmRoll, report.Errors)
		}
		t.Logf("roll(warm=%v): %d ok of %d, p50 %.2fms p99 %.2fms p999 %.2fms max %.2fms",
			warmRoll, report.OK, report.Requests, report.P50MS, report.P99MS, report.P999MS, report.MaxMS)
		return report, rejoinMS
	}
	warmRoll, warmRejoin := rollP99(true)
	coldRoll, coldRejoin := rollP99(false)
	warmTouch, coldTouch := median(warmRejoin), median(coldRejoin)
	t.Logf("p99 during rolling restart: warm %.2fms, cold %.2fms", warmRoll.P99MS, coldRoll.P99MS)
	t.Logf("rejoin first-touch median: warm %.3fms, cold %.3fms (%.1fx)", warmTouch, coldTouch, coldTouch/warmTouch)
	if len(warmRejoin) == 0 || len(coldRejoin) == 0 {
		t.Error("rolling restarts produced no rejoin probes")
	} else if coldTouch < 1.5*warmTouch {
		t.Errorf("cold rejoin first-touch %.3fms vs warm %.3fms: want cold >= 1.5x warm", coldTouch, warmTouch)
	}

	rec, err := eval.LoadBenchRecord(out)
	if err != nil {
		t.Fatal(err)
	}
	if rec.PR == 0 {
		rec.PR = 8
	}
	if rec.Title == "" {
		rec.Title = "Warm rolling restarts: registry snapshot/restore + dynamic fleet membership"
	}
	if rec.Machine == "" {
		rec.Machine = eval.Machine()
	}
	if rec.Command == "" {
		rec.Command = "CHAOS_BENCH_OUT=BENCH_8.json go test ./internal/serve -run TestRollingRestartBench -v"
	}
	if rec.Note == "" {
		rec.Note = "rolling_restart_* p99 is ambient open-loop latency across the whole roll; on a " +
			"single-core host the warm roll's boot-time rewarm shares the CPU with live traffic and " +
			"inflates it. restart_rejoin_first_touch is the shard-stampede metric: first request to " +
			"each restarted replica's own keyspace, probed off-ring."
	}
	rec.Set("restart_first_request", map[string]any{
		"model":          "testNet(7, 128, 512, 4)",
		"request":        fmt.Sprintf("%d-copy exact ensemble, spf 1", copies),
		"seeds":          benchSeeds,
		"warm_median_ms": warm,
		"cold_median_ms": cold,
		"warm_over_cold": ratio,
		"warm_ms":        warmMS,
		"cold_ms":        coldMS,
	})
	rec.Set("restart_rejoin_first_touch", map[string]any{
		"request":        "8-copy conf-0.99 ensemble (the load mix), posted off-ring after boot",
		"warm_median_ms": warmTouch,
		"cold_median_ms": coldTouch,
		"cold_over_warm": coldTouch / warmTouch,
		"warm_ms":        warmRejoin,
		"cold_ms":        coldRejoin,
	})
	rec.Set("rolling_restart_warm", warmRoll)
	rec.Set("rolling_restart_cold", coldRoll)
	if err := rec.Write(out); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded rolling-restart benchmarks into %s", out)
}

// Fleet-churn chaos harness: the pinning suite of the warm rolling-restart
// story. A real fleet of restartable in-process replicas takes continuous
// traffic while the tests drain, snapshot, stop, restart, restore, join, and
// leave them — asserting the properties the serving tier sells: zero failed
// requests, byte-identical responses throughout (the shard-invariance
// contract holding under churn), minimal keyspace movement, and replicas
// that rejoin warm.
package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

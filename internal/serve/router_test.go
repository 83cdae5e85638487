package serve

import (
	"bytes"
	"encoding/json"
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

	"repro/internal/nn"
)

// fleet is a router fronting n in-process replicas, each a full Server over
// the same model set — the homogeneous-fleet invariant in miniature.
type fleet struct {
	router   *Router
	front    *httptest.Server // router's HTTP face
	servers  []*Server
	backends []*httptest.Server
	health   []*healthGate
}

// healthGate wraps a replica handler so tests can fail its /healthz without
// killing the listener (a demoted replica is still reachable, just unrouted).
type healthGate struct {
	inner http.Handler
	down  atomic.Bool
}

func (g *healthGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/healthz" && g.down.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		return
	}
	g.inner.ServeHTTP(w, r)
}

// newFleet boots n replicas serving nets plus a router over them. The
// router's background health loop is off — tests drive CheckNow directly so
// membership changes happen deterministically.
func newFleet(t *testing.T, n int, nets map[string]*nn.Network, cfg Config, rcfg RouterConfig) *fleet {
	t.Helper()
	f := &fleet{}
	var urls []string
	for i := 0; i < n; i++ {
		reg := NewRegistry()
		for name, net := range nets {
			if _, err := reg.Register(name, net, nil); err != nil {
				t.Fatal(err)
			}
		}
		srv := NewServer(reg, cfg)
		gate := &healthGate{inner: srv.Handler()}
		ts := httptest.NewServer(gate)
		f.servers = append(f.servers, srv)
		f.backends = append(f.backends, ts)
		f.health = append(f.health, gate)
		urls = append(urls, ts.URL)
	}
	rcfg.HealthInterval = -1
	rt, err := NewRouter(urls, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.front = httptest.NewServer(rt.Handler())
	t.Cleanup(f.close)
	return f
}

func (f *fleet) close() {
	f.front.Close()
	f.router.Close()
	for i := range f.servers {
		f.backends[i].Close()
		f.servers[i].Close()
	}
}

// TestRouterEndToEndBitIdentical: the tier's contract test. Concurrent
// mixed-model traffic through router + fleet must be bit-identical to the
// offline FastPredictor — sharding must be invisible in every response.
func TestRouterEndToEndBitIdentical(t *testing.T) {
	nets := map[string]*nn.Network{
		"alpha": testNet(t, 11, 24, 12, 3),
		"beta":  testNet(t, 22, 16, 8, 2),
	}
	n := 48
	if testing.Short() {
		n = 16
	}
	cases := e2eCases(t, nets, n)
	f := newFleet(t, 3, nets, Config{MaxBatch: 8, Workers: 2}, RouterConfig{})

	var wg sync.WaitGroup
	errs := make(chan error, len(cases))
	for _, c := range cases {
		wg.Add(1)
		go func(c e2eCase) {
			defer wg.Done()
			req := ClassifyRequest{Model: c.model, Seed: c.seed, SPF: c.spf}
			if c.single {
				req.Input = c.inputs[0]
			} else {
				req.Inputs = c.inputs
			}
			resp, got, raw := postClassify(t, f.front.Client(), f.front.URL, req)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("%s seed=%d: status %d: %s", c.model, c.seed, resp.StatusCode, raw)
				return
			}
			for i := range c.want {
				if got.Results[i].Class != c.want[i].Class {
					errs <- fmt.Errorf("%s seed=%d item %d: class %d, offline %d",
						c.model, c.seed, i, got.Results[i].Class, c.want[i].Class)
					return
				}
				for k := range c.want[i].Counts {
					if got.Results[i].Counts[k] != c.want[i].Counts[k] {
						errs <- fmt.Errorf("%s seed=%d item %d class %d: count %d, offline %d",
							c.model, c.seed, i, k, got.Results[i].Counts[k], c.want[i].Counts[k])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The traffic must actually have spread: with 7 distinct seed groups over
	// 3 replicas, more than one replica should have seen requests.
	st := f.router.Stats()
	busy := 0
	for _, rep := range st.Replicas {
		if rep.Requests > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d of 3 replicas saw traffic — the ring is not spreading keys: %+v", busy, st.Replicas)
	}
	if st.Requests != int64(len(cases)) {
		t.Fatalf("router counted %d requests, want %d", st.Requests, len(cases))
	}
}

// TestRouterShardAffinity: every repetition of one (model, seed) must land on
// the same replica — the warm-cache locality the ring exists to preserve.
// Attribution comes from the X-TN-Replica response header, per request, not
// from stats deltas: the header names exactly who answered each probe.
func TestRouterShardAffinity(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 3, nets, Config{}, RouterConfig{})

	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.25
	}
	const reps = 10
	var owner string
	for i := 0; i < reps; i++ {
		resp, _, raw := postClassify(t, f.front.Client(), f.front.URL,
			ClassifyRequest{Model: "m", Seed: 42, Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rep %d: status %d: %s", i, resp.StatusCode, raw)
		}
		answeredBy := resp.Header.Get(ReplicaHeader)
		if answeredBy == "" {
			t.Fatalf("rep %d: response carries no %s header", i, ReplicaHeader)
		}
		if owner == "" {
			owner = answeredBy
		} else if answeredBy != owner {
			t.Fatalf("rep %d: answered by %s, earlier reps by %s — one (model, seed) split across replicas",
				i, answeredBy, owner)
		}
	}
	// The owner's sampled-copy cache proves it: 1 miss, reps-1 hits.
	for i, srv := range f.servers {
		if f.backends[i].URL != owner {
			continue
		}
		m := srv.Stats().Models["m"]
		if m.SampleCacheMisses != 1 || m.SampleCacheHits != int64(reps-1) {
			t.Fatalf("owner cache stats %+v, want 1 miss / %d hits", m, reps-1)
		}
	}
}

// TestRouterDrainUnderTraffic: removing a replica mid-burst must finish its
// in-flight requests, produce zero errors across the burst, and leave the
// drained replica unused by later traffic.
func TestRouterDrainUnderTraffic(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 3, nets, Config{MaxBatch: 64}, RouterConfig{})
	// Hold every replica's flushes so the whole burst is provably in flight
	// when the drain begins.
	releases := make([]func(), len(f.servers))
	for i, srv := range f.servers {
		releases[i] = holdFlushes(t, srv)
	}

	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.5
	}
	const burst = 30
	want := make(map[uint64]int)
	for s := 0; s < burst; s++ {
		want[uint64(s)] = directResults(t, nets["m"], uint64(s), [][]float64{x}, 2)[0].Class
	}

	var wg sync.WaitGroup
	errs := make(chan error, burst)
	for s := 0; s < burst; s++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			resp, got, raw := postClassify(t, f.front.Client(), f.front.URL,
				ClassifyRequest{Model: "m", Seed: seed, SPF: 2, Input: x})
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, raw)
				return
			}
			if got.Results[0].Class != want[seed] {
				errs <- fmt.Errorf("seed %d: class %d, offline %d", seed, got.Results[0].Class, want[seed])
			}
		}(uint64(s))
	}
	queued := func(i int) int64 { return f.servers[i].Stats().Models["m"].QueueDepth }
	deadline := time.Now().Add(5 * time.Second)
	for queued(0)+queued(1)+queued(2) < burst {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests reached the replicas", queued(0)+queued(1)+queued(2), burst)
		}
		time.Sleep(time.Millisecond)
	}
	// Drain a replica that holds part of the burst; the drain must wait for
	// its in-flight requests to finish.
	vi := 0
	for queued(vi) == 0 {
		vi++
	}
	victim := f.backends[vi].URL
	drained := make(chan error, 1)
	go func() { drained <- f.router.Drain(victim) }()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned (%v) while its replica held %d requests", err, queued(vi))
	case <-time.After(20 * time.Millisecond):
	}
	for _, release := range releases {
		release()
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := f.router.Stats()
	for _, rep := range st.Replicas {
		if rep.Errors != 0 {
			t.Fatalf("replica %s recorded %d errors during drain: %+v", rep.URL, rep.Errors, st.Replicas)
		}
		if rep.URL == victim {
			if !rep.Draining || rep.OnRing {
				t.Fatalf("drained replica state %+v, want draining and off ring", rep)
			}
			if rep.Inflight != 0 {
				t.Fatalf("drain returned with %d requests still in flight", rep.Inflight)
			}
		}
	}
	if st.Unroutable != 0 {
		t.Fatalf("router produced %d unroutable 503s during a 2/3-capacity drain", st.Unroutable)
	}

	// Post-drain traffic avoids the victim and still answers bit-identically.
	before := replicaRequests(st, victim)
	for s := 0; s < burst; s++ {
		resp, got, raw := postClassify(t, f.front.Client(), f.front.URL,
			ClassifyRequest{Model: "m", Seed: uint64(s), SPF: 2, Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("post-drain seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
		if got.Results[0].Class != want[uint64(s)] {
			t.Fatalf("post-drain seed %d: class %d, offline %d — failover changed a response",
				s, got.Results[0].Class, want[uint64(s)])
		}
	}
	if after := replicaRequests(f.router.Stats(), victim); after != before {
		t.Fatalf("drained replica received %d new requests", after-before)
	}

	// Restore returns the victim to the ring; its shard keys come home.
	if err := f.router.Restore(victim); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, rep := range f.router.Stats().Replicas {
		if rep.URL == victim {
			found = rep.OnRing && !rep.Draining
		}
	}
	if !found {
		t.Fatal("restored replica did not rejoin the ring")
	}
}

func replicaRequests(st RouterStats, url string) int64 {
	for _, rep := range st.Replicas {
		if rep.URL == url {
			return rep.Requests
		}
	}
	return -1
}

// TestRouterFailoverOnDeadReplica: a replica that is on the ring but not
// listening (crashed without a health sweep noticing yet) must not surface
// errors — requests fail over along the ring and, by the determinism
// contract, their responses do not change.
func TestRouterFailoverOnDeadReplica(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 2, nets, Config{}, RouterConfig{Attempts: 3})

	// A third backend that accepts no connections: grab a port, then close it.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + l.Addr().String()
	l.Close()
	rt, err := NewRouter([]string{f.backends[0].URL, f.backends[1].URL, deadURL},
		RouterConfig{HealthInterval: -1, Attempts: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.75
	}
	deadSaw := false
	for s := 0; s < 24; s++ {
		want := directResults(t, nets["m"], uint64(s), [][]float64{x}, 1)[0].Class
		resp, got, raw := postClassify(t, front.Client(), front.URL,
			ClassifyRequest{Model: "m", Seed: uint64(s), Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
		if got.Results[0].Class != want {
			t.Fatalf("seed %d: failover answer %d, offline %d", s, got.Results[0].Class, want)
		}
	}
	for _, rep := range rt.Stats().Replicas {
		if rep.URL == deadURL && rep.Errors > 0 {
			deadSaw = true
		}
	}
	if !deadSaw {
		t.Fatal("no key hashed onto the dead replica — the test exercised nothing")
	}
}

// TestRouterHealthDemotesAndPromotes: FailAfter consecutive probe failures
// take a replica off the ring; one success brings it back.
func TestRouterHealthDemotesAndPromotes(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 2, nets, Config{}, RouterConfig{FailAfter: 2})

	f.health[0].down.Store(true)
	f.router.CheckNow() // strike one: still on ring
	if st := f.router.Stats(); !statsFor(st, f.backends[0].URL).OnRing {
		t.Fatal("replica demoted after a single probe failure with FailAfter=2")
	}
	f.router.CheckNow() // strike two: demoted
	st := f.router.Stats()
	if rep := statsFor(st, f.backends[0].URL); rep.Healthy || rep.OnRing {
		t.Fatalf("replica still routable after %d failed probes: %+v", 2, rep)
	}

	// The remaining replica serves the whole key space correctly.
	x := make([]float64, 12)
	for s := 0; s < 8; s++ {
		want := directResults(t, nets["m"], uint64(s), [][]float64{x}, 1)[0].Class
		resp, got, raw := postClassify(t, f.front.Client(), f.front.URL,
			ClassifyRequest{Model: "m", Seed: uint64(s), Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d with one replica down: status %d: %s", s, resp.StatusCode, raw)
		}
		if got.Results[0].Class != want {
			t.Fatalf("seed %d: one-replica answer %d, offline %d", s, got.Results[0].Class, want)
		}
	}

	f.health[0].down.Store(false)
	f.router.CheckNow() // one success promotes
	if rep := statsFor(f.router.Stats(), f.backends[0].URL); !rep.Healthy || !rep.OnRing {
		t.Fatalf("replica not promoted after a successful probe: %+v", rep)
	}
}

func statsFor(st RouterStats, url string) ReplicaStats {
	for _, rep := range st.Replicas {
		if rep.URL == url {
			return rep
		}
	}
	return ReplicaStats{}
}

// TestRouterUnroutable: with every replica demoted the router sheds cleanly —
// 503 with a Retry-After hint, counted in its stats — and /healthz reports
// the router itself as unhealthy so an upstream balancer can drain it.
func TestRouterUnroutable(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 1, nets, Config{}, RouterConfig{FailAfter: 1, RetryAfterS: 3})

	f.health[0].down.Store(true)
	f.router.CheckNow()

	x := make([]float64, 12)
	resp, _, raw := postClassify(t, f.front.Client(), f.front.URL,
		ClassifyRequest{Model: "m", Seed: 1, Input: x})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d with empty ring, want 503: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want \"3\"", got)
	}
	if st := f.router.Stats(); st.Unroutable != 1 {
		t.Fatalf("unroutable count %d, want 1", st.Unroutable)
	}
	hr, err := f.front.Client().Get(f.front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("router /healthz %d with empty ring, want 503", hr.StatusCode)
	}
}

// TestRouterPropagatesShed: a replica's 429 must pass through the router
// verbatim — status, Retry-After, body — and be counted as that replica's
// shed, not a router error. Backpressure semantics must not change when a
// router is inserted in front of a worker.
func TestRouterPropagatesShed(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.WriteHeader(http.StatusOK)
		case "/v1/classify":
			w.Header().Set("Retry-After", "7")
			writeError(w, http.StatusTooManyRequests, "model overloaded")
		default:
			w.WriteHeader(http.StatusNotFound)
		}
	}))
	defer backend.Close()
	rt, err := NewRouter([]string{backend.URL}, RouterConfig{HealthInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, _, raw := postClassify(t, front.Client(), front.URL,
		ClassifyRequest{Model: "m", Seed: 1, Input: []float64{1}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Fatalf("Retry-After %q, want \"7\" from the replica", got)
	}
	st := rt.Stats()
	if st.Replicas[0].Sheds != 1 || st.Replicas[0].Errors != 0 {
		t.Fatalf("replica stats %+v, want 1 shed and 0 errors", st.Replicas[0])
	}
}

// TestRouterParityCheckAndModels: the tnload parity probe passes against a
// live fleet (router + direct replicas byte-identical), /v1/models proxies
// the catalog, and the stats endpoint serves the replica table.
func TestRouterParityCheckAndModels(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 3, nets, Config{MaxBatch: 4}, RouterConfig{})

	models, err := FetchModels(f.front.Client(), f.front.URL)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 1 || models[0].Name != "m" || models[0].InputDim != 12 {
		t.Fatalf("catalog via router = %+v", models)
	}
	replicaURLs := []string{f.backends[0].URL, f.backends[1].URL, f.backends[2].URL}
	n := 12
	if testing.Short() {
		n = 6
	}
	if _, err := ParityCheck(f.front.Client(), f.front.URL, replicaURLs, models, n, 1); err != nil {
		t.Fatalf("parity across the fleet: %v", err)
	}

	resp, err := f.front.Client().Get(f.front.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st RouterStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(st.Replicas) != 3 || st.RingSlots != 3*DefaultVnodes {
		t.Fatalf("router stats %+v, want 3 replicas and %d slots", st, 3*DefaultVnodes)
	}
}

// addBackend boots one more replica serving nets and hooks it into the
// fleet's cleanup. It is not joined to any router — tests do that explicitly
// to exercise dynamic membership.
func addBackend(t *testing.T, f *fleet, nets map[string]*nn.Network, cfg Config) string {
	t.Helper()
	reg := NewRegistry()
	for name, net := range nets {
		if _, err := reg.Register(name, net, nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(reg, cfg)
	gate := &healthGate{inner: srv.Handler()}
	ts := httptest.NewServer(gate)
	f.servers = append(f.servers, srv)
	f.backends = append(f.backends, ts)
	f.health = append(f.health, gate)
	return ts.URL
}

// TestRouterJoinAndLeave: a runtime join hands the newcomer only its own
// share of the keyspace (every moved key moves TO the joiner, nobody else
// reshuffles), a leave drains it and restores exactly the pre-join
// assignment, and responses stay correct throughout. Ownership is read from
// the X-TN-Replica header per request.
func TestRouterJoinAndLeave(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 2, nets, Config{}, RouterConfig{})
	newcomer := addBackend(t, f, nets, Config{})

	x := make([]float64, 12)
	for i := range x {
		x[i] = 0.5
	}
	const seeds = 64
	want := make([]int, seeds)
	for s := range want {
		want[s] = directResults(t, nets["m"], uint64(s), [][]float64{x}, 1)[0].Class
	}
	post := func(s int) string {
		t.Helper()
		resp, got, raw := postClassify(t, f.front.Client(), f.front.URL,
			ClassifyRequest{Model: "m", Seed: uint64(s), Input: x})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", s, resp.StatusCode, raw)
		}
		if got.Results[0].Class != want[s] {
			t.Fatalf("seed %d: class %d, offline %d", s, got.Results[0].Class, want[s])
		}
		return resp.Header.Get(ReplicaHeader)
	}
	ownerBefore := make([]string, seeds)
	for s := 0; s < seeds; s++ {
		ownerBefore[s] = post(s)
	}

	if err := f.router.Join(newcomer); err != nil {
		t.Fatal(err)
	}
	if got := f.router.Backends(); len(got) != 3 {
		t.Fatalf("membership after join = %v, want 3 replicas", got)
	}
	if err := f.router.Join(newcomer); err == nil {
		t.Fatal("duplicate join accepted")
	}

	moved := 0
	for s := 0; s < seeds; s++ {
		after := post(s)
		if after == ownerBefore[s] {
			continue
		}
		if after != newcomer {
			t.Fatalf("seed %d moved from %s to %s — a join must move keys only to the joiner",
				s, ownerBefore[s], after)
		}
		moved++
	}
	if moved == 0 {
		t.Fatalf("joiner owns none of %d keys — the join is invisible", seeds)
	}
	if moved > seeds/2 {
		t.Fatalf("join moved %d of %d keys — far more than one replica's fair share", moved, seeds)
	}

	// Leave = drain + remove: gone from membership, keys exactly where they
	// were before the join (consistent hashing is history-free).
	if err := f.router.Leave(newcomer); err != nil {
		t.Fatal(err)
	}
	if got := f.router.Backends(); len(got) != 2 {
		t.Fatalf("membership after leave = %v, want 2 replicas", got)
	}
	for s := 0; s < seeds; s++ {
		if after := post(s); after != ownerBefore[s] {
			t.Fatalf("seed %d owned by %s after leave, %s before join — leave must restore the original assignment",
				s, after, ownerBefore[s])
		}
	}
	if err := f.router.Leave(newcomer); err == nil {
		t.Fatal("leaving a non-member accepted")
	}
}

// TestRouterAdminBackends: the HTTP face of membership. GET lists the fleet;
// POST join/drain/restore/leave mutate it; the error paths map to statuses
// an orchestration script can branch on (404 unknown, 409 duplicate, 400
// malformed).
func TestRouterAdminBackends(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 2, nets, Config{}, RouterConfig{})
	newcomer := addBackend(t, f, nets, Config{})

	postOp := func(op, url string) (int, string) {
		t.Helper()
		body, err := json.Marshal(backendsOp{Op: op, URL: url})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := f.front.Client().Post(f.front.URL+"/admin/backends", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(raw)
	}

	resp, err := f.front.Client().Get(f.front.URL + "/admin/backends")
	if err != nil {
		t.Fatal(err)
	}
	var listed []ReplicaStats
	if err := json.NewDecoder(resp.Body).Decode(&listed); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(listed) != 2 {
		t.Fatalf("GET /admin/backends listed %d replicas, want 2: %+v", len(listed), listed)
	}

	if code, raw := postOp("join", newcomer); code != http.StatusOK {
		t.Fatalf("join: status %d: %s", code, raw)
	}
	if got := f.router.Backends(); len(got) != 3 {
		t.Fatalf("membership after admin join = %v", got)
	}
	if code, raw := postOp("join", newcomer); code != http.StatusConflict {
		t.Fatalf("duplicate join: status %d, want 409: %s", code, raw)
	}
	if code, raw := postOp("leave", "http://nobody.invalid:1"); code != http.StatusNotFound {
		t.Fatalf("leave unknown: status %d, want 404: %s", code, raw)
	}
	if code, raw := postOp("explode", newcomer); code != http.StatusBadRequest {
		t.Fatalf("unknown op: status %d, want 400: %s", code, raw)
	}

	if code, raw := postOp("drain", newcomer); code != http.StatusOK {
		t.Fatalf("drain: status %d: %s", code, raw)
	}
	if rep := statsFor(f.router.Stats(), newcomer); !rep.Draining || rep.OnRing {
		t.Fatalf("after admin drain: %+v, want draining and off ring", rep)
	}
	if code, raw := postOp("restore", newcomer); code != http.StatusOK {
		t.Fatalf("restore: status %d: %s", code, raw)
	}
	if rep := statsFor(f.router.Stats(), newcomer); rep.Draining || !rep.OnRing {
		t.Fatalf("after admin restore: %+v, want routable", rep)
	}
	if code, raw := postOp("leave", newcomer); code != http.StatusOK {
		t.Fatalf("leave: status %d: %s", code, raw)
	}
	if got := f.router.Backends(); len(got) != 2 {
		t.Fatalf("membership after admin leave = %v", got)
	}

	req, err := http.NewRequest(http.MethodPut, f.front.URL+"/admin/backends", nil)
	if err != nil {
		t.Fatal(err)
	}
	putResp, err := f.front.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putResp.Body.Close()
	if putResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /admin/backends: status %d, want 405", putResp.StatusCode)
	}
}

// TestRouterBackendsFileWatch: the watched membership file is the
// declarative fleet spec — appending a URL joins a replica, deleting its
// line drains and removes it, and a truncated (empty) file never empties the
// fleet.
func TestRouterBackendsFileWatch(t *testing.T) {
	nets := map[string]*nn.Network{"m": testNet(t, 7, 12, 6, 2)}
	f := newFleet(t, 1, nets, Config{}, RouterConfig{})
	b2 := addBackend(t, f, nets, Config{})

	file := filepath.Join(t.TempDir(), "backends.txt")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(file, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(f.backends[0].URL + "\n")
	rt, err := NewRouter([]string{f.backends[0].URL},
		RouterConfig{HealthInterval: -1, BackendsFile: file, WatchInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	waitFor := func(want ...string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			got := rt.Backends()
			if len(got) == len(want) {
				same := true
				for i := range got {
					if got[i] != want[i] {
						same = false
					}
				}
				if same {
					return
				}
			}
			if time.Now().After(deadline) {
				t.Fatalf("membership never converged to %v (got %v)", want, rt.Backends())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	both := []string{f.backends[0].URL, b2}
	sort.Strings(both)

	// Appending a line (with a comment) joins the new replica.
	write(f.backends[0].URL + "\n" + b2 + " # canary\n")
	waitFor(both...)

	// A truncated write mid-update must not drain every replica.
	write("")
	time.Sleep(50 * time.Millisecond)
	if got := rt.Backends(); len(got) != 2 {
		t.Fatalf("empty backends file emptied the fleet: %v", got)
	}

	// Removing the original's line leaves it.
	write(b2 + "\n")
	waitFor(b2)
}

// TestRouterRejectsBadFleet: constructor errors for empty and duplicate
// backend lists (a duplicate would double a replica's ring share silently).
func TestRouterRejectsBadFleet(t *testing.T) {
	if _, err := NewRouter(nil, RouterConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewRouter([]string{"http://a:1", "http://a:1/"}, RouterConfig{}); err == nil {
		t.Fatal("duplicate backend (modulo trailing slash) accepted")
	}
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/rng"
	"repro/internal/serve"
)

const (
	serveWorkers = 2
	// serveClients is the closed loop's client count (= nproc on the
	// reference host): each client sends its next request when the previous
	// one is answered.
	serveClients = 2
	serveSPF     = 4
	ensCopies    = 16
	ensConf      = 0.99
	// Per client, hot requests draw from hotSeeds seeds and ens requests
	// from ensSeeds. Clients own disjoint seeds, so no two requests for one
	// (model, seed) are ever in flight at once and cache hits and misses
	// repeat exactly. All ens copies, 16 per seed over both clients, fit
	// the default 64-entry sample cache, which never has to evict.
	hotSeeds = 8
	ensSeeds = 2
)

// Request classes. Each has its own registered model name, so the classes
// never share a sample cache.
const (
	hot = iota
	cold
	ens
	numClasses
)

var className = [numClasses]string{hot: "hot", cold: "cold", ens: "ens"}

// classPattern fixes the class shares of every 10 requests: 7 hot, 1 cold,
// 2 ens. The median lands inside the hot mode and p95, the tail percentile,
// in the middle of the slower cold mode, not on a boundary between classes.
var classPattern = [10]int{hot, hot, hot, hot, hot, hot, hot, ens, ens, cold}

// serveReq is one entry of a client's request sequence.
type serveReq struct {
	class int
	digit int
	body  []byte // hot and ens; cold requests draw a fresh seed per send
	want  []byte // hot and ens: the check pass's response
}

// serveClient is one closed-loop client. Its sequence repeats with period
// len(reqs); only its own goroutine touches it.
type serveClient struct {
	reqs     []serveReq
	pos      int
	coldBase uint64
	coldN    uint64
}

// nextCold returns a cold seed no request of this run has used.
func (c *serveClient) nextCold() uint64 {
	c.coldN++
	return c.coldBase + c.coldN
}

type serveWorker struct {
	reg *serve.Registry
	srv *serve.Server
	hs  *http.Server
	url string
}

// serveWL is a serve.Router over two serve.Server workers on loopback in
// this process, driven over HTTP by a closed loop of serveClients clients.
type serveWL struct {
	dir     string
	test    *dataset.Dataset
	inputs  [][]byte // JSON of each held-out digit
	workers []*serveWorker
	router  *serve.Router
	rhs     *http.Server
	url     string
	client  *http.Client
	clients []*serveClient
	serving sync.WaitGroup
	tracing atomic.Pointer[tracer]

	// Figures of the last phase, for the per-layer metrics.
	queueWaitMS, batchSize float64
}

// spanHandler times a classify call into next as a span keyed by the hash
// of the request body, while a tracer is set.
type spanHandler struct {
	name string
	next http.Handler
	tr   *atomic.Pointer[tracer]
}

func (h spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	t := h.tr.Load()
	if t == nil || r.URL.Path != "/v1/classify" {
		h.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	start := time.Now()
	h.next.ServeHTTP(w, r)
	t.addSpan(span{name: h.name, key: hashBody(body), start: start, end: time.Now()})
}

func hashBody(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

func classifyBody(model string, seed uint64, copies int, input []byte) []byte {
	b := fmt.Appendf(nil, `{"model":%q,"seed":%d,"spf":%d`, model, seed, serveSPF)
	if copies > 1 {
		b = fmt.Appendf(b, `,"copies":%d,"conf":%g`, copies, ensConf)
	}
	b = append(b, `,"input":`...)
	b = append(b, input...)
	return append(b, '}')
}

func newServe(cfg config, lt map[string]float64) (_ workload, err error) {
	m, test, err := prepare(cfg, lt)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	w := &serveWL{test: test}
	defer func() {
		if err != nil {
			w.close()
		}
	}()
	if w.dir, err = os.MkdirTemp(cfg.workdir, "serve-models-"); err != nil {
		return nil, err
	}
	// Each worker loads the model file once, as "hot", and registers the
	// loaded network again under the other class names.
	path := filepath.Join(w.dir, className[hot]+".json")
	if err := m.SaveFile(path); err != nil {
		return nil, err
	}
	var load time.Duration
	var urls []string
	for i := 0; i < serveWorkers; i++ {
		sw := &serveWorker{reg: serve.NewRegistry()}
		start := time.Now()
		e, err := sw.reg.LoadFile(path)
		if err != nil {
			return nil, err
		}
		load += time.Since(start)
		for _, name := range []string{className[cold], className[ens]} {
			if _, err := sw.reg.Register(name, e.Net, e.Meta); err != nil {
				return nil, err
			}
		}
		sw.srv = serve.NewServer(sw.reg, serve.Config{})
		sw.hs, sw.url, err = w.listen(spanHandler{"worker", sw.srv.Handler(), &w.tracing})
		if err != nil {
			sw.srv.Close()
			return nil, err
		}
		w.workers = append(w.workers, sw)
		urls = append(urls, sw.url)
	}
	lt["nn.load_s"] = load.Seconds()
	// No background health sweeps: every worker starts healthy and stays up.
	if w.router, err = serve.NewRouter(urls, serve.RouterConfig{HealthInterval: -1}); err != nil {
		return nil, err
	}
	if w.rhs, w.url, err = w.listen(spanHandler{"router", w.router.Handler(), &w.tracing}); err != nil {
		return nil, err
	}
	w.client = &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxIdleConnsPerHost: 2 * serveClients, DisableCompression: true,
	}}
	for _, x := range test.X {
		b, err := json.Marshal(x)
		if err != nil {
			return nil, err
		}
		w.inputs = append(w.inputs, b)
	}
	w.clients = w.buildClients(cfg.seed, cfg.size.servePeriod)
	return w, nil
}

// listen serves h on a fresh loopback port.
func (w *serveWL) listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	w.serving.Add(1)
	go func() {
		defer w.serving.Done()
		hs.Serve(ln) // returns ErrServerClosed once close shuts it down
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// buildClients derives every client's request sequence from seed.
func (w *serveWL) buildClients(seed uint64, period int) []*serveClient {
	root := rng.NewPCG32(seed, 17)
	seed64 := func(src *rng.PCG32) uint64 { return uint64(src.Uint32())<<32 | uint64(src.Uint32()) }
	var out []*serveClient
	for id := 0; id < serveClients; id++ {
		src := root.Split(uint64(id))
		c := &serveClient{coldBase: seed64(src)}
		var own [numClasses][]uint64
		for i := 0; i < hotSeeds; i++ {
			own[hot] = append(own[hot], seed64(src))
		}
		for i := 0; i < ensSeeds; i++ {
			own[ens] = append(own[ens], seed64(src))
		}
		order := rng.Perm(src, period)
		for _, k := range order {
			q := serveReq{class: classPattern[k%len(classPattern)], digit: rng.Intn(src, w.test.Len())}
			switch q.class {
			case hot:
				q.body = classifyBody(className[hot], own[hot][rng.Intn(src, hotSeeds)], 1, w.inputs[q.digit])
			case ens:
				q.body = classifyBody(className[ens], own[ens][rng.Intn(src, ensSeeds)], ensCopies, w.inputs[q.digit])
			}
			c.reqs = append(c.reqs, q)
		}
		out = append(out, c)
	}
	return out
}

func (w *serveWL) post(url string, body []byte) (int, []byte, error) {
	resp, err := w.client.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// send posts c's next request through the router. It returns the request,
// the response and its latency span.
func (w *serveWL) send(c *serveClient) (*serveReq, []byte, span, error) {
	q := &c.reqs[c.pos%len(c.reqs)]
	c.pos++
	body := q.body
	if q.class == cold {
		body = classifyBody(className[cold], c.nextCold(), 1, w.inputs[q.digit])
	}
	sp := span{name: "client." + className[q.class], key: hashBody(body), start: time.Now()}
	status, resp, err := w.post(w.url, body)
	sp.end = time.Now()
	if err != nil {
		return q, nil, sp, fmt.Errorf("%w: %v", errFailed, err)
	}
	if status != http.StatusOK {
		return q, nil, sp, fmt.Errorf("%w: status %d: %s", errFailed, status, bytes.TrimSpace(resp))
	}
	return q, resp, sp, nil
}

// classOf decodes the single result of a classify response.
func classOf(resp []byte) (serve.ClassifyResult, error) {
	var cr serve.ClassifyResponse
	if err := json.Unmarshal(resp, &cr); err != nil {
		return serve.ClassifyResult{}, fmt.Errorf("%w: %v", errWrong, err)
	}
	if len(cr.Results) != 1 {
		return serve.ClassifyResult{}, fmt.Errorf("%w: %d results", errWrong, len(cr.Results))
	}
	return cr.Results[0], nil
}

// cacheStats sums the sample-cache counters of one class's model over the
// workers.
func (w *serveWL) cacheStats(class int) (hits, misses int64) {
	for _, sw := range w.workers {
		e, ok := sw.reg.Get(className[class])
		if !ok {
			continue
		}
		h, m := e.CacheStats()
		hits += h
		misses += m
	}
	return hits, misses
}

// check sends one pass of every client's sequence, concurrently as in the
// measured phase, then a probe set through the router and to each worker.
func (w *serveWL) check(r *result) error {
	type tally struct {
		n, correct, ens, copiesUsed, early int
		err                                error
	}
	tallies := make([]tally, len(w.clients))
	var wg sync.WaitGroup
	for i, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &tallies[i]
			for range c.reqs {
				q, resp, _, err := w.send(c)
				if err != nil {
					t.err = err
					return
				}
				res, err := classOf(resp)
				if err != nil {
					t.err = err
					return
				}
				t.n++
				if res.Class == w.test.Y[q.digit] {
					t.correct++
				}
				if q.class != cold {
					q.want = resp
				}
				if q.class == ens {
					t.ens++
					t.copiesUsed += res.CopiesUsed
					if res.CopiesUsed < ensCopies {
						t.early++
					}
				}
			}
		}()
	}
	wg.Wait()
	var sum tally
	for _, t := range tallies {
		if t.err != nil {
			return t.err
		}
		sum.n += t.n
		sum.correct += t.correct
		sum.ens += t.ens
		sum.copiesUsed += t.copiesUsed
		sum.early += t.early
	}
	r.e2e["accuracy"] = float64(sum.correct) / float64(sum.n)
	r.layers["engine.copies_per_item"] = float64(sum.copiesUsed) / float64(sum.ens)
	r.layers["engine.early_exit_frac"] = float64(sum.early) / float64(sum.ens)
	var misses int64
	cache := map[string][2]int64{}
	for class, name := range className {
		h, m := w.cacheStats(class)
		misses += m
		cache[name] = [2]int64{h, m}
		r.layers["serve."+name+"_cache_hit_frac"] = float64(h) / float64(h+m)
	}
	r.diag["cache_hits_misses"] = cache
	r.layers["deploy.samples_per_op"] = float64(misses) / float64(sum.n)
	return w.probe(r)
}

// probe sends one request per class through the router and directly to
// each worker: every answer must be byte-identical.
func (w *serveWL) probe(r *result) error {
	c := w.clients[0]
	bodies := [][]byte{classifyBody(className[cold], c.nextCold(), 1, w.inputs[0])}
	for _, class := range []int{hot, ens} { // every period holds both classes
		i := slices.IndexFunc(c.reqs, func(q serveReq) bool { return q.class == class })
		bodies = append(bodies, c.reqs[i].body)
	}
	for _, body := range bodies {
		status, via, err := w.post(w.url, body)
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			r.problem("serve: probe status %d through the router: %s", status, via)
			continue
		}
		for _, sw := range w.workers {
			status, direct, err := w.post(sw.url, body)
			if err != nil {
				return err
			}
			if status != http.StatusOK || !bytes.Equal(direct, via) {
				r.problem("serve: probe answered %d %s by %s, %s through the router", status, direct, sw.url, via)
			}
		}
	}
	return nil
}

type servePhaseStats struct {
	items, batches, sheds, panics, errs int64
	// Per worker and model: items so far, and the mean queue wait of the
	// window since the previous snapshot.
	modelItems  map[string]int64
	modelWaitMS map[string]float64
}

// snapshot reads every worker's Stats; reading restarts the queue-wait
// window.
func (w *serveWL) snapshot() servePhaseStats {
	s := servePhaseStats{modelItems: map[string]int64{}, modelWaitMS: map[string]float64{}}
	for _, sw := range w.workers {
		st := sw.srv.Stats()
		s.sheds += st.ShedsTotal
		s.panics += st.PanicsTotal
		for name, m := range st.Models {
			s.items += m.Items
			s.batches += m.Batches
			s.errs += m.Errors
			s.modelItems[sw.url+"/"+name] = m.Items
			s.modelWaitMS[sw.url+"/"+name] = m.QueueWaitMeanMS
		}
	}
	return s
}

func (w *serveWL) measure(until time.Time, tr *tracer) (phase, error) {
	before := w.snapshot()
	unroutable := w.router.Stats().Unroutable
	w.tracing.Store(tr)
	defer w.tracing.Store(nil)
	phases := make([]phase, len(w.clients))
	errs := make([]error, len(w.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			phases[i], errs[i] = loop(until, func(int) (int, error) {
				q, resp, sp, err := w.send(c)
				if tr != nil {
					tr.addSpan(sp)
				}
				switch {
				case err != nil:
				case q.want != nil:
					if !bytes.Equal(resp, q.want) {
						err = fmt.Errorf("%w: %s differs from the check pass: %s", errWrong, q.body[:40], resp)
					}
				default:
					_, err = classOf(resp)
				}
				return 1, err
			})
		}()
	}
	wg.Wait()
	var ph phase
	ph.elapsed = time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return ph, err
	}
	for _, p := range phases {
		ph.latMS = append(ph.latMS, p.latMS...)
		ph.items += p.items
		ph.failed += p.failed
		ph.wrong += p.wrong
		if ph.firstBad == "" {
			ph.firstBad = p.firstBad
		}
	}
	after := w.snapshot()
	if d := after.sheds - before.sheds; d > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("serve: %d requests shed (429)", d))
	}
	if d := after.panics - before.panics + after.errs - before.errs; d > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("serve: %d worker errors", d))
	}
	if d := w.router.Stats().Unroutable - unroutable; d > 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("serve: router found no replica %d times", d))
	}
	if items := after.items - before.items; items > 0 {
		// Item-weighted mean of the per-model queue-wait means.
		weighted := 0.0
		for k, n := range after.modelItems {
			weighted += after.modelWaitMS[k] * float64(n-before.modelItems[k])
		}
		w.queueWaitMS = weighted / float64(items)
		w.batchSize = float64(items) / float64(after.batches-before.batches)
	}
	return ph, nil
}

func (w *serveWL) layers(r *result, tr *tracer) error {
	var ops []span
	for _, name := range className {
		cs := tr.named("client." + name)
		if len(cs) == 0 {
			return fmt.Errorf("no traced %s requests", name)
		}
		r.layers["serve."+name+"_ms_p50"] = median(msOf(cs))
		ops = append(ops, cs...)
	}
	// Match each request to its router span and that span to its worker
	// span: same body hash, and nested in time.
	byKey := func(spans []span) map[uint64][]span {
		m := make(map[uint64][]span)
		for _, s := range spans {
			m[s.key] = append(m[s.key], s)
		}
		return m
	}
	within := func(cands []span, outer span) (span, bool) {
		for _, s := range cands {
			if !s.start.Before(outer.start) && !s.end.After(outer.end) {
				return s, true
			}
		}
		return span{}, false
	}
	routers, workers := byKey(tr.named("router")), byKey(tr.named("worker"))
	var workerMS, selfMS, netMS []float64
	total, covered := 0.0, 0.0
	for _, op := range ops {
		rs, ok := within(routers[op.key], op)
		if !ok {
			return fmt.Errorf("request at %v has no router span", op.start)
		}
		ws, ok := within(workers[op.key], rs)
		if !ok {
			return fmt.Errorf("request at %v has no worker span", op.start)
		}
		workerMS = append(workerMS, ws.ms())
		selfMS = append(selfMS, rs.ms()-ws.ms())
		netMS = append(netMS, op.ms()-rs.ms())
		total += op.ms()
		covered += rs.ms()
	}
	r.layers["serve.worker_ms"] = median(workerMS)
	r.layers["serve.router_self_ms"] = median(selfMS)
	r.layers["serve.net_ms"] = median(netMS)
	r.layers["trace.unattributed_frac"] = (total - covered) / total
	r.layers["serve.queue_wait_ms"] = w.queueWaitMS
	r.layers["serve.batch_size"] = w.batchSize
	st := w.snapshot()
	r.layers["serve.sheds"] = float64(st.sheds)
	r.layers["serve.errors"] = float64(st.errs + st.panics + w.router.Stats().Unroutable)

	// What a cold request pays in the deploy layer, called directly on a
	// worker's registered model: one copy draw, and the compile that
	// registration ran once.
	e, ok := w.workers[0].reg.Get(className[cold])
	if !ok {
		return fmt.Errorf("cold model not registered")
	}
	cal := &tracer{}
	src := rng.NewPCG32(0, serve.SampleStream)
	for i := 0; i < 8; i++ {
		src.Seed(uint64(i)+1<<62, serve.SampleStream)
		start := time.Now()
		e.Plan.Sample(src, e.SampleCfg)
		cal.add("deploy.sample", 0, start)
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		deploy.CompileQuant(e.Net)
		cal.add("deploy.compile", 0, start)
	}
	r.layers["deploy.sample_ms"] = median(msOf(cal.named("deploy.sample")))
	r.layers["deploy.compile_ms"] = median(msOf(cal.named("deploy.compile")))
	return nil
}

func (w *serveWL) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if w.rhs != nil {
		w.rhs.Shutdown(ctx) // a request still open after 5 s is cut
	}
	if w.router != nil {
		w.router.Close()
	}
	for _, sw := range w.workers {
		sw.hs.Shutdown(ctx) // as for the router
		sw.srv.Close()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	w.serving.Wait()
	if w.dir != "" {
		os.RemoveAll(w.dir) // best effort: .bench_build is scratch space
	}
}

// Package serve is the dynamic-batching inference service in front of the
// batched engine: an HTTP layer that accepts single and batched classify
// requests, coalesces concurrent requests into engine batches through a
// work-conserving micro-batcher with a bounded queue (a batch goes to an idle
// flush worker at once and grows only while every worker is busy), and serves
// them from a registry of trained networks compiled once into
// deploy.QuantPlans with a warm cache of sampled copies per (model, seed).
//
// The load-bearing property is determinism: every random draw a request
// consumes is derived from the request alone — the sampled copy from
// (model, seed) via SampleStream, item i's inference stream from
// (seed, FrameStream+i) — so a response is bit-identical to a direct offline
// deploy.FastPredictor call with the same derivation, no matter how requests
// were coalesced, how many workers ran the batch, or what other traffic
// shared the flush. That contract is what makes the whole layer testable
// end-to-end (and is pinned by the e2e suite).
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/rng"
)

// Config tunes the serving pipeline. The zero value serves with defaults.
type Config struct {
	// MaxBatch caps the items coalesced into one flush (default 64).
	MaxBatch int
	// QueueCap bounds the pending-item queue (default 4*MaxBatch); a full
	// queue blocks request handlers (backpressure) instead of buffering
	// without limit.
	QueueCap int
	// FlushWorkers is the number of concurrent batch executors (default 2).
	FlushWorkers int
	// Workers caps engine parallelism inside one batch (0 = GOMAXPROCS).
	Workers int
	// MaxSPF caps a request's spikes-per-frame (default 64).
	MaxSPF int
	// MaxItems caps inputs per request (default 256).
	MaxItems int
	// MaxCopies caps a request's ensemble vote budget (default 64).
	MaxCopies int
	// Conf is the default early-exit confidence threshold applied to
	// ensemble requests (copies > 1) that omit "conf". 0 (the default) keeps
	// omitted-conf requests exact; requests carrying an explicit conf —
	// including an explicit 0 — are never affected by this knob.
	Conf float64
	// Wave is the ensemble wave size between early-exit checks
	// (0 = engine.DefaultWave).
	Wave int
	// ShedDepth is the per-model admission watermark: a classify request is
	// refused with 429 + Retry-After while the model already has at least
	// this many items waiting in the batcher queue — latency is shed before
	// it collapses into queue-drain time. 0 (the default) disables shedding;
	// the bounded queue then applies blocking backpressure instead. Set the
	// watermark below QueueCap so admission rejects before Submit blocks.
	ShedDepth int
	// RetryAfterS is the Retry-After hint, in seconds, sent with shed (429)
	// responses (default 1).
	RetryAfterS int
	// SnapshotPath is the default target of POST /admin/snapshot (and, in
	// tnserve, the file written on drain and restored on boot). Empty
	// disables the default — the endpoint then requires an explicit path.
	SnapshotPath string
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxSPF <= 0 {
		c.MaxSPF = 64
	}
	if c.MaxItems <= 0 {
		c.MaxItems = 256
	}
	if c.MaxCopies <= 0 {
		c.MaxCopies = 64
	}
	if c.Conf < 0 {
		c.Conf = 0
	}
	if c.Conf > 1 {
		c.Conf = 1
	}
	if c.ShedDepth < 0 {
		c.ShedDepth = 0
	}
	if c.RetryAfterS <= 0 {
		c.RetryAfterS = 1
	}
	return c
}

// ClassifyRequest is the /v1/classify payload. Exactly one of Input (single)
// or Inputs (batched) must be set. Seed fixes every random draw of the
// request; two requests with equal (model, seed, spf, inputs) always receive
// bit-identical responses.
type ClassifyRequest struct {
	Model  string      `json:"model"`
	Seed   uint64      `json:"seed"`
	SPF    int         `json:"spf,omitempty"`
	Input  []float64   `json:"input,omitempty"`
	Inputs [][]float64 `json:"inputs,omitempty"`
	// Copies is the ensemble vote budget: copy k is the network served for
	// seed CopySeed(seed, k), and class counts sum across voting copies.
	// 0 or 1 (the default) is the plain single-copy path.
	Copies int `json:"copies,omitempty"`
	// Conf enables confidence-gated early exit across the ensemble budget:
	// in [0,1], with 0 meaning exact (all copies vote). Omitting the field
	// inherits the server's configured default; sending an explicit value —
	// including 0 — pins the mode regardless of server config. Ignored when
	// Copies <= 1.
	Conf *float64 `json:"conf,omitempty"`
}

// ClassifyResult is one input's outcome: the decided class and the merged
// per-class spike counts behind the decision.
type ClassifyResult struct {
	Class  int     `json:"class"`
	Counts []int64 `json:"counts"`
	// CopiesUsed is how many ensemble copies voted before the confidence
	// gate (or the budget) stopped the item; present only for ensemble
	// requests (copies > 1).
	CopiesUsed int `json:"copies_used,omitempty"`
}

// ClassifyResponse is the /v1/classify reply; Results aligns with the
// request's inputs.
type ClassifyResponse struct {
	Model   string           `json:"model"`
	Seed    uint64           `json:"seed"`
	SPF     int              `json:"spf"`
	Copies  int              `json:"copies,omitempty"`
	Conf    float64          `json:"conf,omitempty"`
	Results []ClassifyResult `json:"results"`
}

// ModelInfo is one /v1/models row.
type ModelInfo struct {
	Name     string  `json:"name"`
	Classes  int     `json:"classes"`
	InputDim int     `json:"input_dim"`
	Layers   int     `json:"layers"`
	Cores    int     `json:"cores"`
	Penalty  string  `json:"penalty,omitempty"`
	FloatAcc float64 `json:"float_accuracy,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// inflight tracks one request's items through the pipeline; done closes when
// the last item has been classified.
type inflight struct {
	remaining atomic.Int64
	done      chan struct{}
}

// queued is one item in the micro-batcher: everything its classification
// needs, resolved before submission so the flush path is pure compute.
type queued struct {
	entry *ModelEntry
	sn    *deploy.SampledNet
	// ens replaces sn for ensemble items (copies > 1): the request's
	// cache-backed vote ensemble, resolved at submission.
	ens    *deploy.Ensemble
	copies int
	conf   float64
	x      []float64
	spf    int
	seed   uint64 // request seed
	item   uint64 // index within the request
	enq    time.Time
	req    *inflight
	res    ClassifyResult
	err    error
}

// Server is the dynamic-batching inference service. Create with NewServer,
// expose Handler over HTTP, Close to drain.
type Server struct {
	reg     *Registry
	cfg     Config
	batcher *Batcher[*queued]
	mux     *http.ServeMux
	start   time.Time
	items   atomic.Int64
	sheds   atomic.Int64
	panics  atomic.Int64
	// holdFlush, when non-nil, makes every flush wait for it to close before
	// its items leave the queue. Tests set it before the first request to
	// keep accepted work provably queued or in flight.
	holdFlush chan struct{}
}

// NewServer builds a server over reg.
func NewServer(reg *Registry, cfg Config) *Server {
	s := &Server{reg: reg, cfg: cfg.withDefaults(), start: time.Now()}
	s.batcher = NewBatcher(BatcherConfig{
		MaxBatch:     s.cfg.MaxBatch,
		QueueCap:     s.cfg.QueueCap,
		FlushWorkers: s.cfg.FlushWorkers,
	}, s.flushBatch)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/classify", s.handleClassify)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/debug/stats", s.handleStats)
	s.mux.HandleFunc("/admin/snapshot", s.handleSnapshot)
	return s
}

// Handler returns the HTTP handler serving all endpoints, wrapped in panic
// recovery: a panicking request handler answers 500 and bumps panics_total on
// /debug/stats instead of killing the worker's connection goroutine silently.
func (s *Server) Handler() http.Handler { return s.recoverPanics(s.mux) }

// recoverPanics is the outermost middleware. http.ErrAbortHandler passes
// through — it is net/http's sanctioned way to abort a response and must keep
// its semantics. Everything else is counted, logged with a stack, and
// answered with a best-effort 500 (a no-op if the handler already wrote a
// header; the client then sees a truncated body, which is the honest signal).
func (s *Server) recoverPanics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			p := recover()
			if p == nil {
				return
			}
			if p == http.ErrAbortHandler {
				panic(p)
			}
			s.panics.Add(1)
			log.Printf("serve: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			writeError(w, http.StatusInternalServerError, "internal server error")
		}()
		next.ServeHTTP(w, r)
	})
}

// Close drains gracefully: new submissions are refused, every accepted item
// is still classified, and all in-flight flushes complete before Close
// returns. Call after the HTTP listener has stopped accepting requests.
func (s *Server) Close() { s.batcher.Close() }

// Stats snapshots the serving counters.
func (s *Server) Stats() Stats {
	out := Stats{
		UptimeS:     time.Since(s.start).Seconds(),
		QueueDepth:  s.batcher.Depth(),
		Flushes:     s.batcher.Flushes(),
		ItemsTotal:  s.items.Load(),
		ShedsTotal:  s.sheds.Load(),
		PanicsTotal: s.panics.Load(),
		Models:      make(map[string]ModelStats),
	}
	for _, name := range s.reg.Names() {
		if e, ok := s.reg.Get(name); ok {
			out.Models[name] = e.snapshot()
		}
	}
	return out
}

// flushBatch classifies one coalesced batch: items group by model, and each
// group fans out through engine.RunSeeded with every item's stream derived
// from its own (seed, item) pair — grouping and scheduling cannot influence
// results.
func (s *Server) flushBatch(batch []*queued) {
	if s.holdFlush != nil {
		<-s.holdFlush
	}
	groups := make(map[*ModelEntry][]*queued)
	dequeued := time.Now()
	for _, q := range batch {
		// The item leaves the queue here: close out its depth slot and
		// account the enqueue-to-flush wait the operator watches on
		// /debug/stats to see backpressure building before sheds start.
		q.entry.stats.queued.Add(-1)
		q.entry.stats.recordQueueWait(dequeued.Sub(q.enq).Nanoseconds())
		groups[q.entry] = append(groups[q.entry], q)
	}
	type flushState struct {
		fs *deploy.FrameScratch
		// waves is built on a worker's first ensemble item; exact-only
		// workers never pay for it. One entry's items share a readout shape,
		// so one WaveState serves the whole group.
		waves *engine.WaveState
	}
	for entry, items := range groups {
		entry.stats.batches.Add(1)
		// RunSeeded only errors on context cancellation, and serving batches
		// run uncancelled: accepted work is always finished (graceful drain).
		_ = engine.RunSeeded(engine.Config{Workers: s.cfg.Workers}, len(items),
			func(i int, dst *rng.PCG32) { dst.Seed(items[i].seed, FrameStream+items[i].item) },
			func() *flushState {
				return &flushState{fs: entry.scratch.Get().(*deploy.FrameScratch)}
			},
			func(st *flushState, i int, src *rng.PCG32) {
				q := items[i]
				if q.copies > 1 && st.waves == nil {
					st.waves = engine.NewWaveState(q.ens)
				}
				s.classifyOne(entry, q, st.fs, st.waves, src)
			},
			func(st *flushState) { entry.scratch.Put(st.fs) })
		entry.stats.items.Add(int64(len(items)))
		s.items.Add(int64(len(items)))
	}
	for _, q := range batch {
		if q.req.remaining.Add(-1) == 0 {
			close(q.req.done)
		}
	}
}

func (s *Server) classifyOne(entry *ModelEntry, q *queued, fs *deploy.FrameScratch, waves *engine.WaveState, src *rng.PCG32) {
	defer func() {
		if p := recover(); p != nil {
			// Defensive: a panicking frame must fail one request, not the
			// whole service. The stack goes to the server log only; the
			// client sees a generic error.
			log.Printf("serve: classify panic (model %s, seed %d, item %d): %v\n%s",
				entry.Name, q.seed, q.item, p, debug.Stack())
			q.err = fmt.Errorf("internal error classifying item %d", q.item)
		}
	}()
	counts := make([]int64, entry.Plan.Classes())
	if q.copies > 1 {
		// Ensemble vote through the wave scheduler. The item stream src is
		// the same (seed, FrameStream+item) derivation the exact path uses;
		// per-copy streams split off it inside ClassifyWaves, so mixed
		// exact/approximate batches stay bit-exact item by item.
		used := waves.ClassifyWaves(q.ens, fs, q.x, q.spf, q.copies, q.conf, s.cfg.Wave, src, counts)
		q.res = ClassifyResult{Class: entry.Plan.DecideClass(counts), Counts: counts, CopiesUsed: used}
		entry.stats.recordEnsemble(int64(used), used < q.copies)
		entry.stats.recordLatency(time.Since(q.enq).Nanoseconds())
		return
	}
	pred := &deploy.FastPredictor{Net: q.sn}
	pred.Frame(fs, q.x, q.spf, src, counts)
	q.res = ClassifyResult{Class: pred.Decide(counts), Counts: counts}
	entry.stats.recordLatency(time.Since(q.enq).Nanoseconds())
}

func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	req, err := decodeClassify(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	entry, ok := s.reg.Get(req.Model)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown model %q", req.Model))
		return
	}
	inputs := req.Inputs
	switch {
	case req.Input != nil && req.Inputs != nil:
		s.reject(entry, w, http.StatusBadRequest, `set exactly one of "input" and "inputs"`)
		return
	case req.Input != nil:
		inputs = [][]float64{req.Input}
	case len(inputs) == 0:
		s.reject(entry, w, http.StatusBadRequest, "no inputs")
		return
	}
	if len(inputs) > s.cfg.MaxItems {
		s.reject(entry, w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("%d inputs exceeds limit %d", len(inputs), s.cfg.MaxItems))
		return
	}
	spf := req.SPF
	if spf == 0 {
		spf = 1
	}
	if spf < 1 || spf > s.cfg.MaxSPF {
		s.reject(entry, w, http.StatusBadRequest,
			fmt.Sprintf("spf %d outside [1,%d]", req.SPF, s.cfg.MaxSPF))
		return
	}
	copies := req.Copies
	if copies == 0 {
		copies = 1
	}
	if copies < 1 || copies > s.cfg.MaxCopies {
		s.reject(entry, w, http.StatusBadRequest,
			fmt.Sprintf("copies %d outside [1,%d]", req.Copies, s.cfg.MaxCopies))
		return
	}
	conf := s.cfg.Conf
	if req.Conf != nil {
		conf = *req.Conf
	}
	if conf < 0 || conf > 1 {
		s.reject(entry, w, http.StatusBadRequest,
			fmt.Sprintf("conf %g outside [0,1]", conf))
		return
	}
	dim := entry.Plan.InputDim()
	for i, x := range inputs {
		if len(x) == 0 || len(x) > dim {
			s.reject(entry, w, http.StatusBadRequest,
				fmt.Sprintf("input %d has %d features, model takes 1-%d", i, len(x), dim))
			return
		}
	}

	// Admission control: shed before the bounded queue starts blocking.
	// The check is racy by design — concurrent admits can overshoot the
	// watermark by a few requests — because an exact gate would serialize
	// every request through a lock for a threshold that is itself a
	// heuristic. QueueCap remains the hard bound behind it.
	if s.cfg.ShedDepth > 0 {
		if depth := entry.stats.queued.Load(); depth+int64(len(inputs)) > int64(s.cfg.ShedDepth) {
			entry.stats.sheds.Add(1)
			s.sheds.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(s.cfg.RetryAfterS))
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("model %q overloaded: %d items queued (watermark %d)",
					req.Model, depth, s.cfg.ShedDepth))
			return
		}
	}

	entry.stats.requests.Add(1)
	var sn *deploy.SampledNet
	var ens *deploy.Ensemble
	if copies > 1 {
		// Copies materialize lazily from the warm cache as they vote; an
		// early exit never samples the tail of the budget.
		ens = entry.Ensemble(req.Seed, copies)
	} else {
		sn = entry.Sampled(req.Seed)
	}
	inf := &inflight{done: make(chan struct{})}
	inf.remaining.Store(int64(len(inputs)))
	items := make([]*queued, len(inputs))
	now := time.Now()
	for i, x := range inputs {
		items[i] = &queued{
			entry: entry, sn: sn, ens: ens, copies: copies, conf: conf,
			x: x, spf: spf,
			seed: req.Seed, item: uint64(i), enq: now, req: inf,
		}
	}
	entry.stats.queued.Add(int64(len(items)))
	submitted := 0
	var submitErr error
	for _, q := range items {
		if submitErr = s.batcher.Submit(r.Context(), q); submitErr != nil {
			break
		}
		submitted++
	}
	if submitErr != nil {
		// Release the slots the unsubmitted tail holds, then wait out the
		// submitted prefix — graceful drain guarantees it completes.
		entry.stats.queued.Add(-int64(len(items) - submitted))
		if inf.remaining.Add(-int64(len(items)-submitted)) == 0 {
			close(inf.done)
		}
		<-inf.done
		entry.stats.errors.Add(1)
		status := http.StatusServiceUnavailable
		if errors.Is(submitErr, r.Context().Err()) && r.Context().Err() != nil {
			status = http.StatusRequestTimeout
		}
		writeError(w, status, "not accepted: "+submitErr.Error())
		return
	}
	<-inf.done
	for _, q := range items {
		if q.err != nil {
			entry.stats.errors.Add(1)
			writeError(w, http.StatusInternalServerError, q.err.Error())
			return
		}
	}
	resp := ClassifyResponse{Model: req.Model, Seed: req.Seed, SPF: spf,
		Results: make([]ClassifyResult, len(items))}
	if copies > 1 {
		resp.Copies, resp.Conf = copies, conf
	}
	for i, q := range items {
		resp.Results[i] = q.res
	}
	writeJSON(w, http.StatusOK, resp)
}

// reject counts a validation failure against the model before replying.
func (s *Server) reject(entry *ModelEntry, w http.ResponseWriter, status int, msg string) {
	entry.stats.errors.Add(1)
	writeError(w, status, msg)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	names := s.reg.Names()
	out := make([]ModelInfo, 0, len(names))
	for _, name := range names {
		e, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		info := ModelInfo{
			Name:     name,
			Classes:  e.Plan.Classes(),
			InputDim: e.Plan.InputDim(),
			Layers:   e.Plan.Depth(),
			Cores:    e.Plan.NumCores(),
		}
		if e.Meta != nil {
			info.Penalty = e.Meta.Penalty
			info.FloatAcc = e.Meta.FloatAccuracy
		}
		out = append(out, info)
	}
	writeJSON(w, http.StatusOK, out)
}

// SnapshotRequest is the optional POST /admin/snapshot payload.
type SnapshotRequest struct {
	// Path overrides the server's configured snapshot path for this write.
	Path string `json:"path,omitempty"`
}

// handleSnapshot writes a registry snapshot on demand — the operator's
// pre-restart step in the rolling-restart runbook (the drain path of tnserve
// also writes one automatically when -snapshot-file is set). Like
// /debug/stats it is unauthenticated; bind workers to a trusted network.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	var req SnapshotRequest
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusBadRequest, "read request body: "+err.Error())
		return
	}
	if len(body) > 0 {
		if err := json.Unmarshal(body, &req); err != nil {
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
			return
		}
	}
	path := req.Path
	if path == "" {
		path = s.cfg.SnapshotPath
	}
	if path == "" {
		writeError(w, http.StatusBadRequest,
			`no snapshot path: send {"path": ...} or start the server with -snapshot-file`)
		return
	}
	info, err := s.reg.WriteSnapshotFile(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

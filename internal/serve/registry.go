package serve

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
)

// Stream labels of the serving determinism contract. Together they fix every
// random draw a request consumes, so a response depends only on
// (model, seed, item index, input, spf) — never on batching, worker count, or
// traffic.
const (
	// SampleStream derives synapse sampling: the network copy served for
	// (model, seed) is Plan.Sample(rng.NewPCG32(seed, SampleStream), cfg).
	SampleStream = 90
	// FrameStream derives inference randomness: item i of a request with
	// seed S draws every spike/leak draw from
	// rng.NewPCG32(S, FrameStream+uint64(i)).
	FrameStream = 91
)

// CopySeed derives the sample-cache seed of ensemble copy k for a request
// with seed S. Copy 0 is S itself — an ensemble of one votes with exactly the
// copy a plain single-copy request with the same seed serves, and the two
// share one warm-cache slot — and copy k > 0 mixes k into S through
// SplitMix64 so distinct copies land on unrelated cache keys. The derivation
// is a pure function of (S, k): which copies an early exit leaves unevaluated
// can never shift the identity of the ones that do vote.
func CopySeed(seed uint64, k int) uint64 {
	if k == 0 {
		return seed
	}
	return rng.SplitMix64(seed + rng.SplitMix64(uint64(k)))
}

// DefaultSampleCacheCap bounds the per-model warm cache of sampled copies.
const DefaultSampleCacheCap = 64

// ModelEntry is one served model: the trained network, its once-compiled
// fixed-point plan, and a warm cache of sampled copies keyed by request seed.
type ModelEntry struct {
	Name string
	Net  *nn.Network
	// Plan is compiled once at registration; every request serves from it.
	Plan *deploy.QuantPlan
	// Meta carries training provenance when the model was loaded from a
	// tntrain envelope (nil for raw network files).
	Meta      *core.ModelMeta
	SampleCfg deploy.SampleConfig

	mu       sync.Mutex
	cache    map[uint64]*deploy.SampledNet
	cacheCap int
	// Cache counters are cache-line padded like the modelStats counters they
	// sit beside — hit/miss accounting must not false-share with the mutex or
	// the stats block under concurrent load.
	hits   counter
	misses counter
	// scratch pools frame buffers across batches; shape depends only on the
	// plan, so one pool serves copies sampled with any seed.
	scratch sync.Pool
	stats   modelStats
}

// Sampled returns the network copy served for seed, drawing it on first use
// and caching it afterwards (compile once, sample per seed, serve many). The
// copy is immutable during inference, so concurrent requests share it.
// Sampling happens outside the cache lock — a cold seed must not serialize
// warm-cache traffic behind a full network draw. Two concurrent misses on
// one seed may both sample; the draws are deterministic and identical, so
// whichever stores last is indistinguishable.
func (e *ModelEntry) Sampled(seed uint64) *deploy.SampledNet {
	e.mu.Lock()
	if sn, ok := e.cache[seed]; ok {
		e.mu.Unlock()
		e.hits.Add(1)
		return sn
	}
	e.mu.Unlock()
	e.misses.Add(1)
	sn := e.Plan.Sample(rng.NewPCG32(seed, SampleStream), e.SampleCfg)
	e.mu.Lock()
	if len(e.cache) >= e.cacheCap {
		// Evict an arbitrary entry: seeds are interchangeable to re-derive,
		// so a dropped one just costs a resample on its next request.
		for k := range e.cache {
			delete(e.cache, k)
			break
		}
	}
	e.cache[seed] = sn
	e.mu.Unlock()
	return sn
}

// Ensemble returns the n-copy vote ensemble served for seed, backed by the
// entry's warm sample cache: copy k is Sampled(CopySeed(seed, k)), drawn
// lazily on first use. Ensemble and single-copy requests with related seeds
// therefore share cached copies, and an early exit leaves the unevaluated
// copies unsampled.
func (e *ModelEntry) Ensemble(seed uint64, n int) *deploy.Ensemble {
	return deploy.NewEnsemble(e.Plan, n, func(k int) *deploy.SampledNet {
		return e.Sampled(CopySeed(seed, k))
	})
}

// CacheStats returns warm-cache hits and misses so far.
func (e *ModelEntry) CacheStats() (hits, misses int64) {
	return e.hits.Load(), e.misses.Load()
}

// CacheKeys returns the seeds currently warm in the sampled-copy cache,
// sorted ascending. This is the hot-seed set a registry snapshot records so
// a restored replica can rewarm exactly the copies it was serving.
func (e *ModelEntry) CacheKeys() []uint64 {
	e.mu.Lock()
	keys := make([]uint64, 0, len(e.cache))
	for k := range e.cache {
		keys = append(keys, k)
	}
	e.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Registry holds the models a server exposes. Registration compiles each
// network's QuantPlan exactly once; lookups are lock-cheap and concurrent.
type Registry struct {
	mu       sync.RWMutex
	models   map[string]*ModelEntry
	cacheCap int // sample-cache cap of models registered afterwards
}

// NewRegistry returns an empty registry with the default sample-cache cap.
func NewRegistry() *Registry {
	return &Registry{models: make(map[string]*ModelEntry), cacheCap: DefaultSampleCacheCap}
}

// Register validates net, compiles its deployment plan, and exposes it under
// name. meta may be nil.
func (r *Registry) Register(name string, net *nn.Network, meta *core.ModelMeta) (*ModelEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: empty model name")
	}
	if err := net.Validate(); err != nil {
		return nil, fmt.Errorf("serve: model %q: %w", name, err)
	}
	plan := deploy.CompileQuant(net)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.models[name]; dup {
		return nil, fmt.Errorf("serve: duplicate model name %q", name)
	}
	e := &ModelEntry{
		Name:      name,
		Net:       net,
		Plan:      plan,
		Meta:      meta,
		SampleCfg: deploy.DefaultSampleConfig(),
		cache:     make(map[uint64]*deploy.SampledNet),
		cacheCap:  r.cacheCap,
	}
	e.scratch.New = func() any { return plan.NewFrameScratch() }
	r.models[name] = e
	return e, nil
}

// LoadFile registers one model file under its base name (sans extension).
// Both on-disk formats are accepted: a tntrain envelope (meta + network) or a
// raw nn.Network JSON.
func (r *Registry) LoadFile(path string) (*ModelEntry, error) {
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	m, envErr := core.LoadModel(path)
	if envErr == nil {
		return r.Register(name, m.Net, &m.Meta)
	}
	net, rawErr := nn.LoadFile(path)
	if rawErr != nil {
		// Both interpretations failed; report both causes — a corrupt
		// envelope otherwise surfaces only the misleading raw-network error.
		return nil, fmt.Errorf("serve: %s loads neither as a model envelope (%v) nor as a raw network (%v)", path, envErr, rawErr)
	}
	return r.Register(name, net, nil)
}

// LoadDir registers every *.json file in dir (sorted by name) and returns how
// many models were loaded.
func (r *Registry) LoadDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("serve: read model dir: %w", err)
	}
	loaded := 0
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		if _, err := r.LoadFile(filepath.Join(dir, de.Name())); err != nil {
			return loaded, err
		}
		loaded++
	}
	if loaded == 0 {
		return 0, fmt.Errorf("serve: no *.json models in %s", dir)
	}
	return loaded, nil
}

// Get returns the entry for name.
func (r *Registry) Get(name string) (*ModelEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.models[name]
	return e, ok
}

// Names returns the registered model names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.models))
	for n := range r.models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

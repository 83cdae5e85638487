package serve

import "sync/atomic"

// counter is an atomic.Int64 padded out to its own 64-byte cache line. The
// per-model counters are hammered concurrently from every flush worker and
// request handler; packed tightly (as plain atomic.Int64 fields were), each
// Add invalidates the line holding its neighbors and the counters false-share.
// Padding keeps each counter's contention private to itself.
type counter struct {
	atomic.Int64
	_ [56]byte
}

// storeMax raises c to v unless c already holds at least v.
func (c *counter) storeMax(v int64) {
	for {
		cur := c.Load()
		if v <= cur || c.CompareAndSwap(cur, v) {
			return
		}
	}
}

// modelStats accumulates per-model serving counters with atomics; the
// /debug/stats handler snapshots them into ModelStats.
type modelStats struct {
	requests counter // classify requests accepted for this model
	items    counter // items classified
	errors   counter // requests rejected or failed
	sheds    counter // requests refused 429 by the admission watermark
	batches  counter // engine batch groups that contained this model
	latNS    counter // summed per-item queue+compute latency
	maxLatNS counter
	// Ensemble (copies > 1) items and their confidence-gated work-done.
	ensembleItems counter // items that took the wave-scheduled vote path
	copiesUsed    counter // summed copies that actually voted
	earlyExits    counter // ensemble items that exited before their budget
	// Backpressure observables: items of this model currently in the batcher
	// queue, and queue-wait accounting (enqueue -> flush start). The wait
	// counters reset on every /debug/stats scrape, so operators see the max
	// and mean of the window since they last looked — a building backlog
	// shows up immediately instead of being averaged away by history.
	queued    counter
	waitNS    counter // summed queue wait since last scrape
	waitCount counter // items behind waitNS
	waitMaxNS counter // max queue wait since last scrape
}

// recordQueueWait accounts one item's enqueue-to-flush wait.
func (s *modelStats) recordQueueWait(ns int64) {
	s.waitNS.Add(ns)
	s.waitCount.Add(1)
	s.waitMaxNS.storeMax(ns)
}

// recordLatency accounts one item's enqueue-to-classified latency.
func (s *modelStats) recordLatency(ns int64) {
	s.latNS.Add(ns)
	s.maxLatNS.storeMax(ns)
}

// recordEnsemble accounts one wave-scheduled item: how many copies voted and
// whether the confidence gate stopped it short of its budget.
func (s *modelStats) recordEnsemble(used int64, early bool) {
	s.ensembleItems.Add(1)
	s.copiesUsed.Add(used)
	if early {
		s.earlyExits.Add(1)
	}
}

// ModelStats is the JSON snapshot of one model's serving counters.
type ModelStats struct {
	Requests int64 `json:"requests"`
	Items    int64 `json:"items"`
	Errors   int64 `json:"errors"`
	// Sheds counts requests refused with 429 by the admission watermark;
	// QueueDepth is the model's items sitting in the batcher queue right now.
	// QueueWait* cover the window since the previous /debug/stats scrape
	// (they reset on read): the max and mean enqueue-to-flush wait, the
	// leading indicator that sheds are about to start.
	Sheds           int64   `json:"sheds"`
	QueueDepth      int64   `json:"queue_depth"`
	QueueWaitMaxMS  float64 `json:"queue_wait_max_ms"`
	QueueWaitMeanMS float64 `json:"queue_wait_mean_ms"`
	// Batches counts engine runs that served this model; Items/Batches is the
	// realized mean batch size.
	Batches      int64   `json:"batches"`
	AvgBatchSize float64 `json:"avg_batch_size"`
	// Latency is measured per item from enqueue to classified.
	AvgLatencyMS float64 `json:"avg_latency_ms"`
	MaxLatencyMS float64 `json:"max_latency_ms"`
	// Warm sampled-copy cache effectiveness.
	SampleCacheHits   int64 `json:"sample_cache_hits"`
	SampleCacheMisses int64 `json:"sample_cache_misses"`
	// Confidence-gated ensemble work-done: over items served with copies > 1,
	// the mean number of copies that actually voted and the fraction that
	// exited before exhausting their budget.
	EnsembleItems  int64   `json:"ensemble_items"`
	MeanCopiesUsed float64 `json:"mean_copies_used"`
	EarlyExitRate  float64 `json:"early_exit_rate"`
}

// Stats is the /debug/stats payload.
type Stats struct {
	UptimeS    float64 `json:"uptime_s"`
	QueueDepth int     `json:"queue_depth"`
	// Flushes counts dispatched micro-batches across all models; ItemsTotal /
	// UptimeS is the served throughput. ShedsTotal counts requests refused
	// with 429 by the per-model admission watermarks.
	Flushes    int64 `json:"flushes"`
	ItemsTotal int64 `json:"items_total"`
	ShedsTotal int64 `json:"sheds_total"`
	// PanicsTotal counts request handlers recovered by the panic middleware
	// (each answered 500); nonzero means a bug worth chasing, not a crash.
	PanicsTotal int64                 `json:"panics_total"`
	Models      map[string]ModelStats `json:"models"`
}

func (e *ModelEntry) snapshot() ModelStats {
	s := &e.stats
	items, batches := s.items.Load(), s.batches.Load()
	hits, misses := e.CacheStats()
	out := ModelStats{
		Requests:          s.requests.Load(),
		Items:             items,
		Errors:            s.errors.Load(),
		Sheds:             s.sheds.Load(),
		QueueDepth:        s.queued.Load(),
		Batches:           batches,
		MaxLatencyMS:      float64(s.maxLatNS.Load()) / 1e6,
		SampleCacheHits:   hits,
		SampleCacheMisses: misses,
		EnsembleItems:     s.ensembleItems.Load(),
	}
	// Queue-wait counters are scrape-windowed: swap them out atomically so
	// concurrent recorders start the next window cleanly.
	if n := s.waitCount.Swap(0); n > 0 {
		out.QueueWaitMeanMS = float64(s.waitNS.Swap(0)) / float64(n) / 1e6
		out.QueueWaitMaxMS = float64(s.waitMaxNS.Swap(0)) / 1e6
	} else {
		s.waitNS.Swap(0)
		s.waitMaxNS.Swap(0)
	}
	if batches > 0 {
		out.AvgBatchSize = float64(items) / float64(batches)
	}
	if items > 0 {
		out.AvgLatencyMS = float64(s.latNS.Load()) / float64(items) / 1e6
	}
	if out.EnsembleItems > 0 {
		out.MeanCopiesUsed = float64(s.copiesUsed.Load()) / float64(out.EnsembleItems)
		out.EarlyExitRate = float64(s.earlyExits.Load()) / float64(out.EnsembleItems)
	}
	return out
}

package main

import (
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call. op ties the spans of one measured operation
// together; serve spans, recorded on server goroutines, carry the hash of
// the request body in key instead and are matched to their op afterwards.
type span struct {
	name       string
	op         int
	key        uint64
	start, end time.Time
}

func (s span) ms() float64 { return float64(s.end.Sub(s.start).Nanoseconds()) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths pay one nil check per span.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// add records a span named name for op that started at start and ends now.
func (t *tracer) add(name string, op int, start time.Time) {
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, start: start, end: end})
	t.mu.Unlock()
}

// addSpan records a fully formed span.
func (t *tracer) addSpan(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// named returns the spans called name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// msOf returns the durations of spans in milliseconds.
func msOf(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// sumMS returns the summed duration of spans in milliseconds.
func sumMS(spans []span) float64 {
	total := 0.0
	for _, s := range spans {
		total += s.ms()
	}
	return total
}

// perOpMS sums the durations of spans per op index.
func perOpMS(spans []span) map[int]float64 {
	out := make(map[int]float64)
	for _, s := range spans {
		out[s.op] += s.ms()
	}
	return out
}

// unattributed returns the share of the ops' summed time that none of their
// child spans covers. Children of one op run one after another, so their
// durations add without overlap.
func unattributed(ops []span, children map[int]float64) float64 {
	total, covered := 0.0, 0.0
	for _, o := range ops {
		total += o.ms()
		covered += children[o.op]
	}
	if total == 0 {
		return 0
	}
	return (total - covered) / total
}

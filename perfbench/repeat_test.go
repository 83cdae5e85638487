package main

import (
	"encoding/json"
	"os"
	"reflect"
	"runtime"
	"testing"
)

// tinySize runs every workload in about a second.
var tinySize = sizes{
	trainN: 600, epochs: 2, testN: 40, setups: 1,
	surfaceItems: 20, chipItems: 10, chipCopies: 4, denseFrames: 2, servePeriod: 10,
}

// exactCounts lists, per workload, the metrics that must repeat exactly for
// one seed: accuracy, the count metrics, and the raw counters behind them.
var exactCounts = map[string][]string{
	"surface": {"deploy.samples_per_op", "engine.copies_per_item"},
	"chip":    {"truenorth.ticks_per_frame", "truenorth.spikes_per_frame", "truenorth.synev_per_frame"},
	"serve": {"deploy.samples_per_op", "engine.copies_per_item", "engine.early_exit_frac",
		"serve.hot_cache_hit_frac", "serve.cold_cache_hit_frac", "serve.ens_cache_hit_frac"},
}

func tinyRun(t *testing.T, workload string, seed uint64) map[string]any {
	t.Helper()
	r, err := bench(config{workload: workload, seed: seed, seconds: 0.5, trace: true, workdir: t.TempDir(), size: tinySize})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.problems) > 0 {
		t.Fatalf("checks failed: %v", r.problems)
	}
	out := map[string]any{"accuracy": r.e2e["accuracy"]}
	for _, name := range exactCounts[workload] {
		out[name] = r.layers[name]
	}
	for _, k := range []string{"grid", "cache_hits_misses"} {
		if v, ok := r.diag[k]; ok {
			out[k] = v
		}
	}
	return out
}

// TestExactRepeat runs each workload at tiny size twice, under GOMAXPROCS 1
// and 2, and with another seed: accuracy and the counts must repeat exactly
// for one seed and change with the seed.
func TestExactRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a tiny model per run")
	}
	for _, wl := range []string{"surface", "chip", "serve"} {
		t.Run(wl, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(2)
			defer runtime.GOMAXPROCS(prev)
			want := tinyRun(t, wl, 1)
			if got := tinyRun(t, wl, 1); !reflect.DeepEqual(got, want) {
				t.Errorf("second run\n got %v\nwant %v", got, want)
			}
			runtime.GOMAXPROCS(1)
			if got := tinyRun(t, wl, 1); !reflect.DeepEqual(got, want) {
				t.Errorf("GOMAXPROCS 1\n got %v\nwant %v", got, want)
			}
			runtime.GOMAXPROCS(2)
			if got := tinyRun(t, wl, 2); reflect.DeepEqual(got, want) {
				t.Errorf("seed 2 repeated seed 1: %v", got)
			}
		})
	}
}

// TestBenchmarkJSONNames pins BENCHMARK.json's metric names and units to
// the ones the program prints.
func TestBenchmarkJSONNames(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		got  []struct{ Name, Unit string }
		want []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(tc.got) != len(tc.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(tc.got), len(tc.want))
		}
		for i, m := range tc.got {
			if m.Name != tc.want[i].name || m.Unit != tc.want[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s %s, program %s %s", i, m.Name, m.Unit, tc.want[i].name, tc.want[i].unit)
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q unknown to the program", w.Name)
		}
	}
}

package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// BenchmarkServeClassify measures end-to-end request throughput through the
// full HTTP + micro-batching pipeline on one warm model. The serial case is
// the single-request baseline: one client, one request in flight, so every
// request finds a flush worker idle and is dispatched alone at once — the
// per-request latency of an idle server. The concurrent case is the same
// server under parallel load: with every flush worker busy, queued requests
// coalesce into batches of up to MaxBatch, so throughput is engine/HTTP-bound
// (and, on multi-core hosts, gains parallel engine fan-out on top).
func BenchmarkServeClassify(b *testing.B) {
	net := testNet(b, 31, 256, 128, 4)
	body := func() []byte {
		x := make([]float64, 256)
		for i := range x {
			x[i] = float64(i%16) / 16
		}
		raw, err := json.Marshal(ClassifyRequest{Model: "m", Seed: 1, SPF: 4, Input: x})
		if err != nil {
			b.Fatal(err)
		}
		return raw
	}()
	newServer := func(b *testing.B) (*httptest.Server, func()) {
		reg := NewRegistry()
		if _, err := reg.Register("m", net, nil); err != nil {
			b.Fatal(err)
		}
		srv := NewServer(reg, Config{MaxBatch: 16, QueueCap: 1024, FlushWorkers: 4})
		ts := httptest.NewServer(srv.Handler())
		return ts, func() { ts.Close(); srv.Close() }
	}
	post := func(b *testing.B, client *http.Client, url string) {
		resp, err := client.Post(url+"/v1/classify", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}

	b.Run("serial", func(b *testing.B) {
		ts, shutdown := newServer(b)
		defer shutdown()
		client := ts.Client()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, client, ts.URL)
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
	b.Run("concurrent", func(b *testing.B) {
		ts, shutdown := newServer(b)
		defer shutdown()
		client := ts.Client()
		b.SetParallelism(32)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				post(b, client, ts.URL)
			}
		})
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	})
}

// decisiveBenchNet builds a single-core network whose class-0 readout neurons
// fire on essentially every tick while the rest stay silent: the decisive-vote
// regime (analogous to a well-trained model on an easy item) where the
// confidence gate exits after its first wave. The random-weight testNet is the
// opposite regime — near-uniform votes that never exit — so the pair brackets
// the gate's behavior.
func decisiveBenchNet(tb testing.TB, inputs, neurons, classes int) *nn.Network {
	tb.Helper()
	flat := make([]float64, neurons*inputs)
	bias := make([]float64, neurons)
	for j := 0; j < neurons; j++ {
		w, off := -0.8, -1.0
		if j%classes == 0 { // MergeReadout assigns neuron j to class j%classes
			w, off = 0.8, 1.0
		}
		for i := 0; i < inputs; i++ {
			flat[j*inputs+i] = w
		}
		bias[j] = off
	}
	in := make([]int, inputs)
	for i := range in {
		in[i] = i
	}
	net := &nn.Network{
		Layers: []*nn.CoreLayer{{InDim: inputs, Cores: []*nn.CoreSpec{{
			In: in, W: tensor.FromSlice(neurons, inputs, flat), Bias: bias, Exports: neurons,
		}}}},
		Readout:    nn.NewMergeReadout(neurons, classes, 1),
		CMax:       1,
		SigmaFloor: 1e-3,
	}
	if err := net.Validate(); err != nil {
		tb.Fatal(err)
	}
	return net
}

// BenchmarkServeClassifyConf measures end-to-end ensemble requests (16 copies,
// 4 spf) exact versus confidence-gated through the full HTTP pipeline, on a
// decisive-vote model. MaxBatch 1 keeps every request in a batch of its own,
// so the measured cost is one request's inference; the gap between the
// exact and conf99 sub-benchmarks is the early-exit payoff a serving client
// sees.
func BenchmarkServeClassifyConf(b *testing.B) {
	net := decisiveBenchNet(b, 256, 256, 4)
	x := make([]float64, 256)
	for i := range x {
		x[i] = float64(i%16) / 16
	}
	for _, sub := range []struct {
		name string
		conf float64
	}{{"exact", 0}, {"conf99", 0.99}} {
		b.Run(sub.name, func(b *testing.B) {
			reg := NewRegistry()
			if _, err := reg.Register("m", net, nil); err != nil {
				b.Fatal(err)
			}
			srv := NewServer(reg, Config{MaxBatch: 1, QueueCap: 1024, FlushWorkers: 4})
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()
			body, err := json.Marshal(ClassifyRequest{Model: "m", Seed: 1, SPF: 4, Input: x,
				Copies: 16, Conf: &sub.conf})
			if err != nil {
				b.Fatal(err)
			}
			client := ts.Client()
			post := func() {
				resp, err := client.Post(ts.URL+"/v1/classify", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
			post() // warm: materialize all 16 copies before timing
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post()
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
			entry, _ := reg.Get("m")
			b.ReportMetric(entry.snapshot().MeanCopiesUsed, "copies/req")
		})
	}
}

// BenchmarkClassifyDecode measures the worker's decode of a perfbench-shaped
// classify body (one 784-pixel synthetic digit): the single-pass scan the
// handler takes, against the encoding/json reference it falls back to.
func BenchmarkClassifyDecode(b *testing.B) {
	body := digitBody(b, 1)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeClassify(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := decodeClassifyJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRouterShardKey measures the router's (model, seed) decode of the
// same body: the scan that skips converting the pixels, against the
// json.Unmarshal into shardFields it falls back to.
func BenchmarkRouterShardKey(b *testing.B) {
	body := digitBody(b, 1)
	b.Run("scan", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := shardKeyOf(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for b.Loop() {
			var key shardFields
			if err := json.Unmarshal(body, &key); err != nil {
				b.Fatal(err)
			}
		}
	})
}

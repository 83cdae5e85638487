package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/internal/deploy"
	"repro/internal/nn"
	"repro/internal/rng"
)

func confPtr(c float64) *float64 { return &c }

// directEnsembleResults is the offline reference for ensemble requests: copy k
// is the plan sampled at (CopySeed(seed, k), SampleStream), item i's per-copy
// streams split off rng.NewPCG32(seed, FrameStream+i) in copy order — exactly
// the serving determinism contract, with no serve machinery involved.
func directEnsembleResults(tb testing.TB, net *nn.Network, seed uint64, inputs [][]float64, spf, copies int) []ClassifyResult {
	tb.Helper()
	plan := deploy.CompileQuant(net)
	nets := make([]*deploy.SampledNet, copies)
	for k := range nets {
		nets[k] = plan.Sample(rng.NewPCG32(CopySeed(seed, k), SampleStream), deploy.DefaultSampleConfig())
	}
	fs := plan.NewFrameScratch()
	out := make([]ClassifyResult, len(inputs))
	var cs rng.PCG32
	for i, x := range inputs {
		root := rng.NewPCG32(seed, FrameStream+uint64(i))
		counts := make([]int64, plan.Classes())
		for k := 0; k < copies; k++ {
			root.SplitInto(&cs, uint64(k))
			nets[k].Frame(fs, x, spf, &cs, counts)
		}
		out[i] = ClassifyResult{Class: plan.DecideClass(counts), Counts: counts, CopiesUsed: copies}
	}
	return out
}

// TestServeEnsembleExactBitIdentical: ensemble requests with an explicit
// conf=0 must return counts bit-identical to the offline per-copy reference,
// across batching configurations and interleaved with single-copy traffic —
// which itself must stay bit-identical to its own exact reference.
func TestServeEnsembleExactBitIdentical(t *testing.T) {
	net := testNet(t, 51, 20, 10, 3)
	const spf, copies = 2, 6
	inputs := make([][]float64, 4)
	src := rng.NewPCG32(510, 5)
	for i := range inputs {
		x := make([]float64, 20)
		for j := range x {
			x[j] = rng.Float64(src)
		}
		inputs[i] = x
	}
	seeds := []uint64{3, 77, 3, 900}
	wantEns := make([][]ClassifyResult, len(seeds))
	wantOne := make([][]ClassifyResult, len(seeds))
	for i, seed := range seeds {
		wantEns[i] = directEnsembleResults(t, net, seed, inputs, spf, copies)
		wantOne[i] = directResults(t, net, seed, inputs, spf)
	}

	configs := []Config{
		{MaxBatch: 1, Workers: 1, FlushWorkers: 1},
		{MaxBatch: 16, Workers: 4},
	}
	for ci, cfg := range configs {
		t.Run(fmt.Sprintf("cfg%d", ci), func(t *testing.T) {
			reg := NewRegistry()
			if _, err := reg.Register("m", net, nil); err != nil {
				t.Fatal(err)
			}
			srv := NewServer(reg, cfg)
			ts := httptest.NewServer(srv.Handler())
			defer func() { ts.Close(); srv.Close() }()

			var wg sync.WaitGroup
			errs := make(chan error, 2*len(seeds))
			for si, seed := range seeds {
				wg.Add(2)
				go func(si int, seed uint64) {
					defer wg.Done()
					resp, got, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{
						Model: "m", Seed: seed, SPF: spf, Inputs: inputs,
						Copies: copies, Conf: confPtr(0),
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, raw)
						return
					}
					for i, w := range wantEns[si] {
						g := got.Results[i]
						if g.Class != w.Class || g.CopiesUsed != copies {
							errs <- fmt.Errorf("seed %d item %d: (class %d, used %d) vs offline (class %d, used %d)",
								seed, i, g.Class, g.CopiesUsed, w.Class, copies)
							return
						}
						for k := range w.Counts {
							if g.Counts[k] != w.Counts[k] {
								errs <- fmt.Errorf("seed %d item %d class %d: count %d, offline %d", seed, i, k, g.Counts[k], w.Counts[k])
								return
							}
						}
					}
				}(si, seed)
				go func(si int, seed uint64) {
					defer wg.Done()
					resp, got, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{
						Model: "m", Seed: seed, SPF: spf, Inputs: inputs,
					})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Errorf("single seed %d: status %d: %s", seed, resp.StatusCode, raw)
						return
					}
					for i, w := range wantOne[si] {
						g := got.Results[i]
						if g.Class != w.Class || g.CopiesUsed != 0 {
							errs <- fmt.Errorf("single seed %d item %d: class %d used %d, offline class %d",
								seed, i, g.Class, g.CopiesUsed, w.Class)
							return
						}
						for k := range w.Counts {
							if g.Counts[k] != w.Counts[k] {
								errs <- fmt.Errorf("single seed %d item %d class %d: count %d, offline %d", seed, i, k, g.Counts[k], w.Counts[k])
								return
							}
						}
					}
				}(si, seed)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestServeEnsembleApproxDeterministic: for fixed (model, seed, conf), gated
// ensemble responses — including how many copies voted — are byte-identical
// across repeats, traffic, and batching configurations.
func TestServeEnsembleApproxDeterministic(t *testing.T) {
	net := testNet(t, 52, 16, 8, 2)
	x := make([]float64, 16)
	for i := range x {
		x[i] = float64(i) / 16
	}
	req := ClassifyRequest{Model: "m", Seed: 13, SPF: 2, Input: x, Copies: 16, Conf: confPtr(0.95)}
	var ref []byte
	for ci, cfg := range []Config{
		{MaxBatch: 1, Workers: 1, FlushWorkers: 1},
		{MaxBatch: 8, Workers: 4},
	} {
		reg := NewRegistry()
		if _, err := reg.Register("m", net, nil); err != nil {
			t.Fatal(err)
		}
		srv := NewServer(reg, cfg)
		ts := httptest.NewServer(srv.Handler())
		for rep := 0; rep < 3; rep++ {
			resp, got, raw := postClassify(t, ts.Client(), ts.URL, req)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cfg %d rep %d: status %d: %s", ci, rep, resp.StatusCode, raw)
			}
			enc, _ := json.Marshal(got.Results)
			if ref == nil {
				ref = enc
				if got.Results[0].CopiesUsed < 1 || got.Results[0].CopiesUsed > 16 {
					t.Fatalf("copies_used %d outside [1,16]", got.Results[0].CopiesUsed)
				}
			} else if !bytes.Equal(enc, ref) {
				t.Fatalf("cfg %d rep %d: gated response diverged:\n%s\n%s", ci, rep, enc, ref)
			}
			// Unrelated interleaved traffic must not shift the outcome.
			postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: uint64(200 + ci*10 + rep), Input: x})
		}
		ts.Close()
		srv.Close()
	}
}

// TestServeEnsembleConfDefaulting: omitting conf inherits the server default;
// an explicit conf — including 0 — pins the request's mode.
func TestServeEnsembleConfDefaulting(t *testing.T) {
	reg := NewRegistry()
	net := testNet(t, 53, 16, 8, 2)
	if _, err := reg.Register("m", net, nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{Conf: 0.95})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	x := make([]float64, 16)
	for i := range x {
		x[i] = 0.25
	}
	base := ClassifyRequest{Model: "m", Seed: 4, SPF: 2, Input: x, Copies: 12}
	_, inherited, _ := postClassify(t, ts.Client(), ts.URL, base)
	if inherited.Conf != 0.95 {
		t.Fatalf("omitted conf served with %g, want server default 0.95", inherited.Conf)
	}
	pinned := base
	pinned.Conf = confPtr(0)
	_, exact, _ := postClassify(t, ts.Client(), ts.URL, pinned)
	if exact.Conf != 0 || exact.Results[0].CopiesUsed != 12 {
		t.Fatalf("explicit conf=0 served with conf %g, used %d of 12 copies", exact.Conf, exact.Results[0].CopiesUsed)
	}
	if inherited.Copies != 12 || exact.Copies != 12 {
		t.Fatalf("response copies %d/%d, want 12", inherited.Copies, exact.Copies)
	}
}

// TestServeEnsembleStats: ensemble traffic populates mean_copies_used and
// early_exit_rate; exact ensemble traffic reports a full budget and zero exits.
func TestServeEnsembleStats(t *testing.T) {
	reg := NewRegistry()
	net := testNet(t, 54, 16, 8, 2)
	entry, err := reg.Register("m", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	x := make([]float64, 16)
	const copies = 8
	postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 1, Input: x, Copies: copies, Conf: confPtr(0)})
	resp, err := ts.Client().Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m := st.Models["m"]
	if m.EnsembleItems != 1 || m.MeanCopiesUsed != copies || m.EarlyExitRate != 0 {
		t.Fatalf("exact ensemble stats %+v, want 1 item, mean %d, exit rate 0", m, copies)
	}

	// Force statistical exits with a saturated threshold and many copies.
	_, got, _ := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 1, SPF: 4, Input: x, Copies: 64, Conf: confPtr(0.5)})
	resp, err = ts.Client().Get(ts.URL + "/debug/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	m = st.Models["m"]
	if m.EnsembleItems != 2 {
		t.Fatalf("ensemble_items = %d, want 2", m.EnsembleItems)
	}
	wantMean := float64(copies+got.Results[0].CopiesUsed) / 2
	if m.MeanCopiesUsed != wantMean {
		t.Fatalf("mean_copies_used = %g, want %g", m.MeanCopiesUsed, wantMean)
	}
	wantRate := 0.0
	if got.Results[0].CopiesUsed < 64 {
		wantRate = 0.5
	}
	if m.EarlyExitRate != wantRate {
		t.Fatalf("early_exit_rate = %g, want %g", m.EarlyExitRate, wantRate)
	}
	_ = entry
}

// TestServeEnsembleValidation: copies and conf outside their domains are
// rejected with 400 before any work is queued.
func TestServeEnsembleValidation(t *testing.T) {
	reg := NewRegistry()
	if _, err := reg.Register("m", testNet(t, 55, 8, 4, 2), nil); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{MaxCopies: 4})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	x := make([]float64, 8)
	for _, bad := range []ClassifyRequest{
		{Model: "m", Input: x, Copies: 5},
		{Model: "m", Input: x, Copies: -1},
		{Model: "m", Input: x, Copies: 2, Conf: confPtr(1.5)},
		{Model: "m", Input: x, Copies: 2, Conf: confPtr(-0.1)},
	} {
		resp, _, raw := postClassify(t, ts.Client(), ts.URL, bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("copies=%d conf=%v: status %d (%s), want 400", bad.Copies, bad.Conf, resp.StatusCode, raw)
		}
	}
	// MaxCopies bounds the budget, not the mode: copies at the cap is fine.
	resp, _, raw := postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 1, Input: x, Copies: 4, Conf: confPtr(0.9)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("copies at cap: status %d (%s)", resp.StatusCode, raw)
	}
}

// TestCopySeedCacheSharing: copy 0 of an ensemble is the single-copy network
// for the same seed, so ensemble and plain requests share its warm-cache slot.
func TestCopySeedCacheSharing(t *testing.T) {
	if CopySeed(42, 0) != 42 {
		t.Fatalf("CopySeed(42, 0) = %d, want 42", CopySeed(42, 0))
	}
	if CopySeed(42, 1) == 42 || CopySeed(42, 1) == CopySeed(42, 2) {
		t.Fatal("CopySeed must spread k > 0 away from the base seed and each other")
	}

	reg := NewRegistry()
	net := testNet(t, 56, 8, 4, 2)
	entry, err := reg.Register("m", net, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(reg, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()

	x := make([]float64, 8)
	postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 9, Input: x})
	hits, misses := entry.CacheStats()
	if hits != 0 || misses != 1 {
		t.Fatalf("after single-copy request: hits=%d misses=%d, want 0/1", hits, misses)
	}
	// A 3-copy exact ensemble on the same seed reuses copy 0 from the cache
	// and samples only the two derived copies.
	postClassify(t, ts.Client(), ts.URL, ClassifyRequest{Model: "m", Seed: 9, Input: x, Copies: 3, Conf: confPtr(0)})
	hits, misses = entry.CacheStats()
	if hits != 1 || misses != 3 {
		t.Fatalf("after ensemble request: hits=%d misses=%d, want 1/3 (copy 0 shared)", hits, misses)
	}
}

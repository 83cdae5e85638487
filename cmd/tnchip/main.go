// Command tnchip deploys a trained model (from tntrain) onto the simulated
// TrueNorth chip and reports occupancy, activity and energy statistics, or
// dumps a Figure 4 deviation map.
//
// Usage:
//
//	tnchip -model bench1_biased.json -bench 1 -quick               # stats
//	tnchip -model bench1_biased.json -deviation core0.pgm          # Fig 4 map
//	tnchip -model bench1_biased.json -bench 1 -quick -copies 4     # 4 copies
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/deploy"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fault"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/truenorth"
)

func main() {
	var (
		modelPath = flag.String("model", "", "model JSON written by tntrain")
		benchID   = flag.Int("bench", 1, "bench id used for evaluation data")
		quick     = flag.Bool("quick", false, "smoke-scale dataset")
		seed      = flag.Uint64("seed", 1, "sampling seed")
		spf       = flag.Int("spf", 1, "spikes per frame")
		copies    = flag.Int("copies", 1, "network copies to place")
		frames    = flag.Int("frames", 50, "test frames to run through the chip")
		workers   = flag.Int("workers", 1, "worker goroutines, each simulating a private chip (0 = GOMAXPROCS); every item draws from its own stream, so results are identical for any worker count")
		faultSpec = flag.String("fault", "", "inject a fault spec (internal/fault syntax, e.g. 'seed=7,dead=0.25,drop=0.1,drift=0.5'); fault draws depend only on the spec and copy index, so any tnrepro sweep point's fault realization reproduces here")
		deviation = flag.String("deviation", "", "write a deviation PGM of layer0/core0 and exit")
		place     = flag.String("place", "", "place the ensemble on the 64x64 mesh (naive, layered, anneal) and report NoC traffic vs the row-major baseline")
	)
	flag.Parse()
	if *modelPath == "" {
		fatal(fmt.Errorf("-model is required"))
	}
	m, err := core.LoadModel(*modelPath)
	if err != nil {
		fatal(err)
	}

	if *deviation != "" {
		dm, err := deploy.CoreDeviation(m.Net, 0, 0, rng.NewPCG32(*seed, 1))
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*deviation)
		if err != nil {
			fatal(err)
		}
		if err := dm.WritePGM(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		s := dm.Stats()
		fmt.Printf("deviation map %dx%d: zero %.2f%%, >50%% %.2f%%, mean %.4f -> %s\n",
			dm.Axons, dm.Neurons, s.ZeroFrac*100, s.OverHalfFrac*100, s.Mean, *deviation)
		return
	}

	b, err := eval.BenchByID(*benchID)
	if err != nil {
		fatal(err)
	}
	if *spf < 1 {
		fatal(fmt.Errorf("-spf must be at least 1 (got %d)", *spf))
	}
	opt := eval.Options{Quick: *quick, Seed: *seed}
	r := eval.NewRunner(opt, os.Stderr)
	_, test := r.Data(b)
	if err := checkModelBench(m.Net, test); err != nil {
		fatal(fmt.Errorf("bench %d: %w", b.ID, err))
	}

	// Sample `copies` spatial copies and serve them through the shared
	// inference engine on the cycle-accurate chip path: every worker
	// simulates a private chip ensemble, and class spike counts sum across
	// copies before each decision.
	var fcfg fault.Config
	if *faultSpec != "" {
		if fcfg, err = fault.ParseSpec(*faultSpec); err != nil {
			fatal(err)
		}
	}
	root := rng.NewPCG32(*seed, 7)
	nets := make([]*deploy.SampledNet, *copies)
	for c := range nets {
		// Copy c's plan is compiled through the analog fault models with copy
		// salt c; a spec with no analog noise compiles to exactly
		// deploy.CompileQuant's plan.
		plan, err := fault.AnalogPlan(fcfg, m.Net, c)
		if err != nil {
			fatal(err)
		}
		nets[c] = plan.Sample(root.Split(uint64(c)), deploy.DefaultSampleConfig())
	}
	cp, err := deploy.NewChipPredictor(nets, deploy.MapSigned, *seed)
	if err != nil {
		fatal(err)
	}
	if *faultSpec != "" {
		if err := cp.SetFaults(fault.ChipHook(fcfg)); err != nil {
			fatal(err)
		}
		fmt.Printf("faults: %s\n", fcfg.String())
	}
	fmt.Printf("model %s/%s: %d copies -> %d cores (%.1f%% of one %d-core chip)\n",
		m.Meta.Bench, m.Meta.Penalty, *copies, cp.Cores(),
		100*float64(cp.Cores())/float64(truenorth.ChipCapacity), truenorth.ChipCapacity)

	n := *frames
	if n > test.Len() {
		n = test.Len()
	}
	if n <= 0 {
		fatal(fmt.Errorf("-frames must be positive (got %d)", *frames))
	}
	eng := engine.New(cp, engine.Config{Workers: *workers})
	acc, err := eng.Accuracy(test.X[:n], test.Y[:n], *spf, rng.NewPCG32(*seed, 9))
	if err != nil {
		fatal(err)
	}
	stats := cp.Stats()
	fmt.Printf("frames: %d  spf: %d  accuracy: %.4f\n", n, *spf, acc)
	fmt.Printf("activity: %d ticks, %d spikes, %d synaptic events\n", stats.Ticks, stats.Spikes, stats.SynEvents)
	fmt.Printf("synaptic energy estimate: %.3g J (26 pJ/event)\n", stats.SynapticEnergyJoules())

	if *place != "" {
		// One placed single-chip ensemble over the same sampled copies: the
		// NoC observer charges every routed spike its mesh hops under the
		// chosen placement (observer-only, so accuracy above is unaffected).
		cn, err := deploy.BuildChipEnsemblePlaced(nets, deploy.MapSigned, *seed, deploy.Placer(*place))
		if err != nil {
			fatal(err)
		}
		traffic := cn.Traffic()
		naive, err := truenorth.PlaceRowMajor(cn.Chip.NumCores())
		if err != nil {
			fatal(err)
		}
		src := rng.NewPCG32(*seed, 9)
		var hops, routed, maxLink int64
		for f := 0; f < n; f++ {
			cn.Frame(test.X[f], *spf, src)
			noc := cn.Chip.NoC()
			hops += noc.Hops
			routed += noc.Spikes
			maxLink += noc.MaxLinkLoad()
		}
		wirePlaced, wireNaive := cn.Placed.WireCost(traffic), naive.WireCost(traffic)
		savings := 0.0
		if wireNaive > 0 {
			savings = 100 * (1 - wirePlaced/wireNaive)
		}
		fmt.Printf("placement %s: wire cost %.0f vs row-major %.0f (%.1f%% lower), max link %.0f vs %.0f\n",
			*place, wirePlaced, wireNaive, savings,
			cn.Placed.LinkLoads(traffic).MaxLoad(), naive.LinkLoads(traffic).MaxLoad())
		meanHops := 0.0
		if routed > 0 {
			meanHops = float64(hops) / float64(routed)
		}
		fmt.Printf("noc: %d routed spikes, %d hops (%.2f hops/spike), %.3g J routing, %.3g s/spike latency, %.1f max-link/frame\n",
			routed, hops, meanHops, float64(hops)*truenorth.HopEnergyJoules,
			meanHops*truenorth.HopLatencySeconds, float64(maxLink)/float64(n))
	}
}

// checkModelBench reports why net cannot classify the bench's test set: it
// must read at least the set's feature width and decide over exactly its
// classes.
func checkModelBench(net *nn.Network, test *dataset.Dataset) error {
	if in := net.Layers[0].InDim; in < test.FeatDim {
		return fmt.Errorf("model reads %d inputs, fewer than the %d features of %s", in, test.FeatDim, test.Name)
	}
	classes := 0
	if net.Readout != nil {
		classes = net.Readout.Classes
	}
	if classes != test.NumClasses {
		return fmt.Errorf("model decides %d classes, %s has %d", classes, test.Name, test.NumClasses)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tnchip:", err)
	os.Exit(1)
}

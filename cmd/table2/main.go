// Command table2 regenerates the paper's Table II end to end: it trains
// motion predictors of the I<depth>×<width> family on identical simulator
// data, then formally verifies each one through the public pkg/vnn API —
// reporting the maximum lateral velocity reachable when a vehicle exists
// on the left, and the wall-clock verification time. A final row proves
// (or refutes) the 3 m/s bound on the largest network, mirroring the
// paper's last row.
//
// Each network is compiled against the property region exactly once; the
// largest network's max-query and prove-query share that single compiled
// encoding (no re-encoding or re-tightening between them).
//
// Absolute times differ from the paper (pure-Go simplex vs CPLEX on a
// 12-core VM); the shape — steep growth of verification time with width and
// per-network variation in the attained maximum — is the reproduction
// target. See DESIGN.md "Experiment index".
//
// Usage:
//
//	table2                                 # scaled default sweep
//	table2 -widths 10,20,25,40,50,60 -depth 4 -timeout 30m   # paper scale
//	table2 -workers 1                      # sequential branch-and-bound
//	table2 -quant 8,6,4                    # re-verify the largest network
//	                                       # quantized at each bit-width
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("table2: ")
	var (
		widthsArg = flag.String("widths", "4,6,8,10", "comma-separated hidden widths to sweep")
		depth     = flag.Int("depth", 2, "hidden layers (the paper uses 4)")
		comps     = flag.Int("k", 2, "mixture components")
		epochs    = flag.Int("epochs", 15, "training epochs")
		seed      = flag.Int64("seed", 1, "random seed")
		timeout   = flag.Duration("timeout", 5*time.Minute, "time limit per network (its compile and its per-output MILPs in turn), and for the prove row and the quant sweep")
		proveThr  = flag.Float64("prove", 3.0, "bound to prove on the largest network (m/s)")
		workers   = flag.Int("workers", 0, "branch-and-bound workers per MILP solve (0 = all cores, 1 = sequential)")
		tighten   = flag.Bool("tighten", false, "LP-based bound tightening at compile time")
		quantArg  = flag.String("quant", "", "comma-separated bit-widths: quantize the largest network, re-verify at each width (e.g. \"8,6,4\")")
	)
	flag.Parse()

	var widths []int
	for _, tok := range strings.Split(*widthsArg, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil || w < 1 {
			log.Fatalf("bad width %q", tok)
		}
		widths = append(widths, w)
	}

	// One dataset for all networks, as in the paper ("trained a couple of
	// neural networks under the same data").
	cfg := highway.DefaultDatasetConfig()
	cfg.Sim.Seed = *seed
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		log.Fatal(err)
	}
	clean, _ := vnn.SanitizeData(data, core.SafetyRules(1e-9))
	fmt.Printf("dataset: %d validated samples\n\n", len(clean))
	fmt.Print(headerLines())

	ctx := context.Background()
	opts := vnn.Options{Workers: *workers, Tighten: *tighten}
	var lastCompiled *vnn.CompiledNetwork
	var lastArch string
	var lastMax *vnn.Result
	for _, w := range widths {
		pred := core.NewPredictorNet(*depth, w, *comps, *seed+int64(w))
		trainer := &train.Trainer{
			Net:       pred.Net,
			Loss:      train.MDN{K: *comps},
			Opt:       train.NewAdam(0.003),
			BatchSize: 64,
			Rng:       rand.New(rand.NewSource(*seed + int64(w)*13)),
			ClipNorm:  20,
		}
		trainer.Fit(clean, *epochs)

		// Compile once per network; every query below (and the final prove
		// row for the largest) runs on this one shared encoding.
		cctx, cancel := context.WithTimeout(ctx, *timeout)
		cn, err := vnn.Compile(cctx, pred.Net, vnn.LeftOccupiedRegion(), opts)
		if err != nil {
			cancel()
			log.Fatal(err)
		}
		res, err := vnn.VerifyOne(cctx, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(maxRow(pred.Net.ArchString(), res))
		lastCompiled, lastArch, lastMax = cn, pred.Net.ArchString(), res
	}

	if lastCompiled != nil && *proveThr > 0 {
		start := time.Now()
		props := make([]vnn.Property, 0, *comps)
		for _, out := range vnn.MuLatOutputs(*comps) {
			props = append(props, vnn.AtMost(out, *proveThr))
		}
		pctx, cancel := context.WithTimeout(ctx, *timeout)
		results, err := vnn.Verify(pctx, lastCompiled, props...)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(proveRow(lastArch, *proveThr, vnn.Worst(results), time.Since(start).Seconds()))
	}

	// Optional quantization sweep over the largest network: the same
	// max-query re-verified at every bit-width through the QuantSweep
	// analysis (one recompile per width on the shared region).
	if lastCompiled != nil && *quantArg != "" {
		var bits []int
		for _, tok := range strings.Split(*quantArg, ",") {
			b, err := strconv.Atoi(strings.TrimSpace(tok))
			if err != nil || b < 2 || b > 16 {
				log.Fatalf("bad bit-width %q (want integers in [2, 16])", tok)
			}
			bits = append(bits, b)
		}
		// The width loop just solved this exact max query on this exact
		// compiled network — hand it to the sweep as the baseline so the
		// most expensive solve is not repeated.
		qctx, cancel := context.WithTimeout(ctx, *timeout)
		finding, err := vnn.AnalyzeOne(qctx, lastCompiled, &vnn.QuantSweep{
			Bits:       bits,
			Properties: []vnn.Property{vnn.MaxOverOutputs(vnn.MuLatOutputs(*comps)...)},
			Base:       []*vnn.Result{lastMax},
		})
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		for i := range finding.QuantSweep.Points {
			fmt.Print(quantRow(lastArch, &finding.QuantSweep.Points[i]))
		}
	}
}

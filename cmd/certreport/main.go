// Command certreport runs the paper's full certification methodology
// (Table I) end to end on a freshly generated dataset and predictor:
//
//  1. specification validity — data generation + rule-based validation;
//  2. implementation understandability — neuron-to-feature traceability;
//  3. implementation correctness — coverage analysis (showing the MC/DC
//     blow-up) and formal verification of the lateral-velocity property.
//
// Every analysis runs through the public dependability API (vnn.Analyze
// over one compiled network), so the dossier this command prints is
// assembled from exactly the findings the vnnd service would return for
// the same portfolio request. With -json the raw findings are emitted as
// the shared wire Report document (vnn.NewAnalysisReport) instead of the
// human-readable dossier.
//
// Usage:
//
//	certreport -depth 2 -width 10 -epochs 20
//	certreport -hints            # property-guided training
//	certreport -json             # machine-readable findings (wire Report)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/highway"
	"repro/pkg/vnn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("certreport: ")
	var (
		depth    = flag.Int("depth", 2, "hidden layers")
		width    = flag.Int("width", 10, "neurons per hidden layer")
		comps    = flag.Int("k", vnn.DefaultComponents, "mixture components")
		epochs   = flag.Int("epochs", 20, "training epochs")
		episodes = flag.Int("episodes", 0, "simulated episodes for data generation (0 = default config)")
		steps    = flag.Int("steps", 0, "steps per episode (0 = default config)")
		seed     = flag.Int64("seed", 1, "random seed")
		hints    = flag.Bool("hints", false, "property-penalty training")
		thr      = flag.Float64("threshold", 3.0, "safety bound to prove (m/s)")
		timeout  = flag.Duration("timeout", 10*time.Minute, "verification deadline (compile + all queries)")
		full     = flag.Bool("trace", false, "print the full traceability report")
		jsonOut  = flag.Bool("json", false, "emit the findings as the machine-readable wire Report (shared with the vnnd service)")
	)
	flag.Parse()

	cfg := core.PipelineConfig{
		Depth: *depth, Width: *width, Components: *comps,
		Seed:            *seed,
		Epochs:          *epochs,
		Hints:           *hints,
		SafetyThreshold: *thr,
		VerifyTimeout:   *timeout,
	}
	if *episodes > 0 || *steps > 0 {
		cfg.Dataset = highway.DefaultDatasetConfig()
		if *episodes > 0 {
			cfg.Dataset.Episodes = *episodes
		}
		if *steps > 0 {
			cfg.Dataset.StepsPerEpisode = *steps
		}
	}
	res, err := core.RunPipeline(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(vnn.NewAnalysisReport(res.Predictor.Net, res.Findings)); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(res)
	if *full {
		fmt.Println()
		fmt.Print(res.Traceability)
	}
	fmt.Printf("total pipeline time: %.1fs\n", res.Elapsed.Seconds())
}

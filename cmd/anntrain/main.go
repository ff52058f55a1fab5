// Command anntrain trains a motion-predictor network of the paper's
// I<depth>×<width> family on simulator data and saves it as JSON.
//
// Usage:
//
//	anntrain -depth 4 -width 10 -epochs 30 -out i4x10.json
//	anntrain -data data.json -hints -out hinted.json
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("anntrain: ")
	var (
		depth    = flag.Int("depth", 4, "hidden layers")
		width    = flag.Int("width", 10, "neurons per hidden layer")
		comps    = flag.Int("k", vnn.DefaultComponents, "mixture components")
		epochs   = flag.Int("epochs", 30, "training epochs")
		seed     = flag.Int64("seed", 1, "random seed")
		dataPath = flag.String("data", "", "dataset JSON (generated fresh when empty)")
		out      = flag.String("out", "predictor.json", "output network file")
		hints    = flag.Bool("hints", false, "enable property-penalty (hints) training")
		hintThr  = flag.Float64("hint-threshold", 0.5, "lateral velocity penalty threshold (m/s)")
		lr       = flag.Float64("lr", 0.003, "Adam learning rate")
	)
	flag.Parse()

	var data []train.Sample
	var err error
	if *dataPath != "" {
		data, err = train.LoadSamples(*dataPath)
	} else {
		cfg := highway.DefaultDatasetConfig()
		cfg.Sim.Seed = *seed
		data, err = highway.GenerateDataset(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}

	// Data is specification: validate before training (Sec. II (C)).
	rules := core.SafetyRules(1e-9)
	report := vnn.ValidateData(data, rules)
	fmt.Print(report)
	clean, removed := vnn.SanitizeData(data, rules)
	if removed > 0 {
		fmt.Printf("sanitized: removed %d risky samples\n", removed)
	}

	pred := core.NewPredictorNet(*depth, *width, *comps, *seed)
	var loss train.Loss = train.MDN{K: *comps}
	if *hints {
		loss = train.HintPenalty{
			Base:      loss,
			Predicate: highway.LeftOccupiedInFeatures,
			Threshold: *hintThr,
			Lambda:    4,
			K:         *comps,
		}
	}
	trainer := &train.Trainer{
		Net:       pred.Net,
		Loss:      loss,
		Opt:       train.NewAdam(*lr),
		BatchSize: 64,
		Rng:       rand.New(rand.NewSource(*seed + 2)),
		ClipNorm:  20,
	}
	trainSet, valSet := train.Split(clean, 0.15, rand.New(rand.NewSource(*seed+1)))
	for e := 0; e < *epochs; e++ {
		l := trainer.Epoch(trainSet)
		if e%5 == 0 || e == *epochs-1 {
			fmt.Printf("epoch %3d  loss %.4f\n", e, l)
		}
	}
	if len(valSet) > 0 {
		fmt.Printf("validation loss %.4f\n", trainer.MeanLoss(valSet))
	}
	if err := pred.Net.Save(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %s (%s, %d raw outputs = %d mixture components)\n",
		*out, pred.Net.ArchString(), pred.Net.OutputDim(), *comps)
}

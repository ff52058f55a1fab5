// Monitor demonstrates the paper's operation-time pillar: certification
// does not end when a property is proved, because the proof quantifies
// over the design domain while operation feeds the network whatever the
// world produces. A runtime activation-pattern monitor closes that gap.
//
// The run trains a motion predictor on nominal highway traffic, builds a
// monitor from the training scenes against the compiled network's proven
// pre-activation bounds, and then confronts it with a ladder of operation
// traffic: held-out nominal scenes (pass), scenes at increasing levels of
// sensor-noise perturbation (flagged more the farther they drift), and
// uniformly random feature vectors (nothing like traffic at all). The
// flagged fractions grade cleanly with the distribution shift — the
// monitor knows what the training data looked like.
//
// The ladder is checked through the batched path
// (vnn.Monitor.CheckBatchInto): one fused forward+check pass over the
// whole batch on the blocked serving kernels, allocation-free in steady
// state and bit-identical to checking each input alone — batching
// changes throughput, never verdicts. Everything runs on the public
// packages (pkg/highway, pkg/vnn); the vnnd service serves the same
// monitor online through POST /v1/infer, where warm clients can address
// it purely by fingerprint.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/pkg/highway"
	"repro/pkg/vnn"
)

func main() {
	log.SetFlags(0)

	// 1. Nominal traffic, split into build and held-out scenes.
	data, err := highway.GenerateDataset(highway.DefaultDatasetConfig())
	if err != nil {
		log.Fatal(err)
	}
	clean, _ := vnn.SanitizeData(data, vnn.SafetyRules(1e-9))
	trainSet, holdout := vnn.SplitData(clean, 0.2, rand.New(rand.NewSource(1)))
	fmt.Printf("nominal traffic: %d build scenes, %d held-out scenes\n", len(trainSet), len(holdout))

	// 2. A small trained predictor.
	pred := vnn.NewPredictor(2, 24, 2, 21)
	trainer := &vnn.Trainer{
		Net: pred.Net, Loss: vnn.MDN{K: 2}, Opt: vnn.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(21)), ClipNorm: 20,
	}
	trainer.Fit(trainSet, 10)

	// 3. Compile over the operational design domain (the full normalized
	// feature box) and build the monitor against the proven bounds.
	box := make([]vnn.Interval, highway.FeatureDim)
	for i := range box {
		box[i] = vnn.Interval{Lo: 0, Hi: 1}
	}
	cn, err := vnn.Compile(context.Background(), pred.Net, &vnn.Region{Box: box}, vnn.Options{})
	if err != nil {
		log.Fatal(err)
	}
	buildInputs := make([][]float64, len(trainSet))
	for i, s := range trainSet {
		buildInputs[i] = s.X
	}
	mon, err := vnn.BuildMonitor(cn, buildInputs, vnn.MonitorOptions{Gamma: 0})
	if err != nil {
		log.Fatal(err)
	}
	st := mon.Stats()
	fmt.Printf("monitor: %d patterns from %d scenes (γ=%d, %d rejected as statically unreachable)\n",
		mon.PatternCount(), st.Inputs, mon.Gamma(), st.Rejected)
	fmt.Printf("fingerprint: %s\n\n", mon.Fingerprint())

	// 4. A ladder of operation traffic, from nominal to nothing-like-it.
	// One batched forward+check pass per rung: the scratch is reused
	// across rungs, so after the first call the check never allocates.
	rng := rand.New(rand.NewSource(2))
	bsc := mon.NewBatchScratch()
	preds := make([][]float64, 512)
	for i := range preds {
		preds[i] = make([]float64, pred.Net.OutputDim())
	}
	verdicts := make([]vnn.MonitorVerdict, 512)
	flagged := func(inputs [][]float64) (int, int) {
		mon.CheckBatchInto(preds[:len(inputs)], bsc, inputs, verdicts[:len(inputs)])
		n := 0
		for _, v := range verdicts[:len(inputs)] {
			if !v.OK {
				n++
			}
		}
		return n, len(inputs)
	}

	nominal := make([][]float64, 0, 512)
	for i, s := range holdout {
		if i == 512 {
			break
		}
		nominal = append(nominal, s.X)
	}
	perturb := func(sigma float64) [][]float64 {
		out := make([][]float64, len(nominal))
		for i, x := range nominal {
			p := append([]float64(nil), x...)
			for j := range p {
				p[j] += rng.NormFloat64() * sigma
				if p[j] < 0 {
					p[j] = 0
				}
				if p[j] > 1 {
					p[j] = 1
				}
			}
			out[i] = p
		}
		return out
	}
	random := make([][]float64, len(nominal))
	for i := range random {
		random[i] = highway.RandomFeatureVector(rng)
	}

	for _, c := range []struct {
		name   string
		inputs [][]float64
	}{
		{"held-out nominal scenes ", nominal},
		{"sensor noise σ=0.10     ", perturb(0.10)},
		{"sensor noise σ=0.25     ", perturb(0.25)},
		{"sensor noise σ=0.50     ", perturb(0.50)},
		{"uniform random vectors  ", random},
	} {
		f, n := flagged(c.inputs)
		fmt.Printf("%s flagged %4d/%4d (%.1f%%)\n", c.name, f, n, 100*float64(f)/float64(n))
	}

	// 5. The same measurement as a dossier row: the MonitorAudit analysis
	// flags coverage-generated inputs — fresh probes of the whole domain.
	finding, err := vnn.AnalyzeOne(context.Background(), cn, &vnn.MonitorAudit{
		Data: buildInputs, Gamma: 0, AuditTests: 2000, Seed: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	mf := finding.Monitor
	fmt.Printf("\nmonitor_audit (certification dossier row): %d/%d coverage-generated probes flagged (%.1f%%)\n",
		mf.Flagged, mf.Audited, 100*mf.FlaggedFraction)
	fmt.Println("\nin operation, vnnd serves exactly this check per prediction: POST /v1/infer")
	fmt.Println("returns each input's prediction plus its ok / out-of-pattern verdict.")
}

// Package repro holds the benchmark harness that regenerates every table
// and figure of the paper's evaluation (see DESIGN.md "Experiment index"):
//
//	BenchmarkTable2/*            — Table II: verification of I<d>×<w> predictors
//	                               (the I2 sweep and one I3x8 row)
//	BenchmarkTable2ProveBound    — Table II last row: prove lat vel ≤ 3 m/s
//	BenchmarkFig1Snapshot        — Fig. 1: scene + predicted action distribution
//	BenchmarkCertificationPipeline — Table I: the full methodology
//	BenchmarkCoverage/*          — Sec. II: MC/DC dichotomy measurements
//	BenchmarkQuantVerify/*       — remark (ii): quantized-network verification
//	BenchmarkHintsAblation/*     — remark (iii): property-guided training
//	BenchmarkBigMAblation/*      — design choice: interval vs LP-tightened big-M
//	BenchmarkEngineWorkers/*     — warm-started engine: Workers=1 vs all cores
//
// The sweep uses scaled-down widths so `go test -bench=.` terminates on a
// laptop; `cmd/table2` runs the paper's exact architectures.
package repro

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/coverage"
	"repro/internal/dataval"
	"repro/internal/gmm"
	"repro/internal/highway"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/train"
	"repro/internal/verify"
	"repro/pkg/vnn"
)

// benchCtx builds a generously-bounded context for one benchmarked query.
func benchCtx(b *testing.B) context.Context {
	b.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	b.Cleanup(cancel)
	return ctx
}

// benchWidths is the scaled Table II sweep (the paper's widths are
// 10,20,25,40,50,60 at depth 4; run cmd/table2 for those).
var benchWidths = []int{4, 6, 8, 10}

const benchDepth = 2

// benchDeepWidth is the width of the ladder's one depth-3 row, I3x8: deep
// enough for the branching order to show, small enough to prove in a
// fraction of a second.
const benchDeepWidth = 8

type benchState struct {
	data   []train.Sample
	preds  map[int]*core.Predictor // by width, plain MDN training
	deep   *core.Predictor         // I3x8, trained the same way
	hinted *core.Predictor
}

var (
	stateOnce sync.Once
	state     benchState
)

// benchData generates the shared simulator dataset, sanitised.
func benchData() []train.Sample {
	cfg := highway.DefaultDatasetConfig()
	cfg.Episodes = 3
	cfg.StepsPerEpisode = 150
	cfg.Sim.Seed = 1
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		panic(err)
	}
	clean, _ := dataval.Sanitize(data, core.SafetyRules(1e-9))
	return clean
}

// setup builds one shared dataset and trains every benchmark predictor
// exactly once; benchmarks then time only the experiment itself.
func setup(b *testing.B) *benchState {
	b.Helper()
	stateOnce.Do(func() {
		clean := benchData()
		state.data = clean
		state.preds = map[int]*core.Predictor{}
		for _, w := range benchWidths {
			state.preds[w] = trainPredictor(clean, benchDepth, w)
		}
		state.deep = trainPredictor(clean, 3, benchDeepWidth)
		// Hinted variant: the same plain network fine-tuned under the
		// property (penalty + region samples + counterexample rounds).
		state.hinted = &core.Predictor{Net: state.preds[benchWidths[0]].Net.Clone(), K: 2}
		if err := vnn.HintFineTune(state.hinted, clean, vnn.HintConfig{Seed: 4242}); err != nil {
			panic(err)
		}
	})
	return &state
}

func trainPredictor(data []train.Sample, depth, width int) *core.Predictor {
	pred := core.NewPredictorNet(depth, width, 2, int64(width)*31+7)
	tr := &train.Trainer{
		Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(int64(width))), ClipNorm: 20,
	}
	tr.Fit(data, 10)
	return pred
}

// BenchmarkTable2 regenerates Table II rows: per architecture, the maximum
// lateral velocity when a vehicle exists on the left, and the time to find
// it. The reported custom metrics carry the table's two columns.
func BenchmarkTable2(b *testing.B) {
	st := setup(b)
	type row struct {
		arch string
		pred *core.Predictor
	}
	var rows []row
	for _, w := range benchWidths {
		rows = append(rows, row{fmt.Sprintf("I%dx%d", benchDepth, w), st.preds[w]})
	}
	rows = append(rows, row{fmt.Sprintf("I3x%d", benchDeepWidth), st.deep})
	for _, r := range rows {
		pred := r.pred
		b.Run(r.arch, func(b *testing.B) {
			var last *vnn.Result
			ctx := benchCtx(b)
			for i := 0; i < b.N; i++ {
				res, err := pred.VerifySafety(ctx, vnn.Options{})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Value, "maxLatVel(m/s)")
			b.ReportMetric(float64(last.Stats.Nodes), "bbNodes")
			b.ReportMetric(float64(last.Stats.LPPivots), "lpPivots")
			b.ReportMetric(float64(last.Stats.Binaries), "binaries")
		})
	}
}

// BenchmarkTable2ProveBound is Table II's final row: prove the lateral
// velocity can never exceed 3 m/s on the largest benchmarked network.
func BenchmarkTable2ProveBound(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[len(benchWidths)-1]]
	var proved float64
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		outcome, _, err := pred.ProveSafetyBound(ctx, 3.0, vnn.Options{})
		if err != nil {
			b.Fatal(err)
		}
		// The paper itself observed that not every trained network
		// guarantees the property; report the outcome instead of failing.
		if outcome == vnn.Proved {
			proved = 1
		} else {
			proved = 0
		}
	}
	b.ReportMetric(proved, "proved")
}

// BenchmarkFig1Snapshot regenerates Fig. 1: simulate a scene, render it,
// run the predictor, and rasterize the suggested action distribution.
func BenchmarkFig1Snapshot(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[0]]
	for i := 0; i < b.N; i++ {
		sim, err := highway.NewSim(highway.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(200, 0.25)
		ego := sim.Vehicles[0]
		scene := sim.Render(ego, 200, 72)
		mix := pred.Predict(sim.Observe(ego).Encode())
		grid := mix.Grid(-3, 3, -3, 3, 48, 12)
		if len(scene) == 0 || len(grid) != 12 {
			b.Fatal("snapshot incomplete")
		}
	}
}

// BenchmarkCertificationPipeline runs the whole Table I methodology on a
// small predictor: data validation, training, traceability, coverage and
// formal verification.
func BenchmarkCertificationPipeline(b *testing.B) {
	ds := highway.DefaultDatasetConfig()
	ds.Episodes = 1
	ds.StepsPerEpisode = 60
	for i := 0; i < b.N; i++ {
		res, err := core.RunPipeline(context.Background(), core.PipelineConfig{
			Depth: 1, Width: 6, Components: 2,
			Seed: int64(i + 1), Dataset: ds, Epochs: 4,
			VerifyTimeout: 10 * time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxLatVel == nil {
			b.Fatal("pipeline skipped verification")
		}
	}
}

// BenchmarkCoverage measures the Sec. II testing dichotomy: MC/DC demands
// for tanh vs ReLU, and the cost of coverage-suite maintenance.
func BenchmarkCoverage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tanhNet := nn.New(nn.Config{Name: "t", InputDim: 8, Hidden: []int{20, 20}, OutputDim: 2, HiddenAct: nn.Tanh, OutputAct: nn.Identity}, rng)
	reluNet := nn.New(nn.Config{Name: "r", InputDim: 8, Hidden: []int{20, 20}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)

	b.Run("mcdc-counting", func(b *testing.B) {
		var tanhTests, reluBits int
		for i := 0; i < b.N; i++ {
			tanhTests = coverage.RequiredTests(tanhNet)
			reluBits = coverage.BranchCombinations(reluNet).BitLen()
		}
		b.ReportMetric(float64(tanhTests), "tanhMCDCTests")
		b.ReportMetric(float64(reluBits-1), "reluBranchExponent")
	})
	b.Run("relu-suite-add", func(b *testing.B) {
		suite := coverage.NewSuite(reluNet)
		x := make([]float64, 8)
		r := rand.New(rand.NewSource(2))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range x {
				x[j] = r.Float64()*2 - 1
			}
			suite.Add(x)
		}
	})
	b.Run("coverage-guided-generation", func(b *testing.B) {
		lo := make([]float64, 8)
		hi := make([]float64, 8)
		for i := range lo {
			lo[i], hi[i] = -1, 1
		}
		for i := 0; i < b.N; i++ {
			suite, _ := coverage.Generate(reluNet, lo, hi, rand.New(rand.NewSource(int64(i))), coverage.GenerateOptions{MaxTests: 500})
			if suite.Tests() == 0 {
				b.Fatal("no tests generated")
			}
		}
	})
}

// BenchmarkQuantVerify compares verification of the float predictor against
// its 8-bit quantized version (concluding remark ii).
func BenchmarkQuantVerify(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[0]]
	qnet, info, err := quant.Quantize(pred.Net, 8)
	if err != nil {
		b.Fatal(err)
	}
	qpred := &core.Predictor{Net: qnet, K: pred.K}
	b.Run("float64", func(b *testing.B) {
		ctx := benchCtx(b)
		for i := 0; i < b.N; i++ {
			if _, err := pred.VerifySafety(ctx, vnn.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("int8", func(b *testing.B) {
		var last *vnn.Result
		ctx := benchCtx(b)
		for i := 0; i < b.N; i++ {
			res, err := qpred.VerifySafety(ctx, vnn.Options{})
			if err != nil {
				b.Fatal(err)
			}
			last = res
		}
		b.ReportMetric(last.Value, "maxLatVel(m/s)")
		b.ReportMetric(info.MaxWeightError, "maxWeightErr")
	})
}

// BenchmarkHintsAblation verifies a plain and a hint-trained predictor of
// identical architecture (concluding remark iii): the hinted network's
// verified maximum should be no larger.
func BenchmarkHintsAblation(b *testing.B) {
	st := setup(b)
	run := func(b *testing.B, pred *core.Predictor) float64 {
		var v float64
		ctx := benchCtx(b)
		for i := 0; i < b.N; i++ {
			res, err := pred.VerifySafety(ctx, vnn.Options{})
			if err != nil {
				b.Fatal(err)
			}
			v = res.Value
		}
		b.ReportMetric(v, "maxLatVel(m/s)")
		return v
	}
	b.Run("plain", func(b *testing.B) { run(b, st.preds[benchWidths[0]]) })
	b.Run("hints", func(b *testing.B) { run(b, st.hinted) })
}

// BenchmarkEngineWorkers runs the hardest Table II row on the sequential
// engine (Workers=1) and the default parallel engine (Workers=0, all
// cores). The verified maximum must agree between the two modes — the
// engines differ only in scheduling and warm-start paths, never in the
// answer — while wall-clock time shows the parallel speedup.
func BenchmarkEngineWorkers(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[len(benchWidths)-1]]
	sequentialValue := math.NaN()
	for _, mode := range []struct {
		name    string
		workers int
	}{{"workers1", 1}, {"workersAuto", 0}} {
		b.Run(mode.name, func(b *testing.B) {
			var last *vnn.Result
			ctx := benchCtx(b)
			for i := 0; i < b.N; i++ {
				res, err := pred.VerifySafety(ctx, vnn.Options{Workers: mode.workers})
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			if mode.workers == 1 {
				sequentialValue = last.Value
			} else if !math.IsNaN(sequentialValue) && math.Abs(last.Value-sequentialValue) > 1e-9 {
				b.Fatalf("parallel engine value %.12g != sequential %.12g", last.Value, sequentialValue)
			}
			b.ReportMetric(last.Value, "maxLatVel(m/s)")
			b.ReportMetric(float64(last.Stats.Nodes), "bbNodes")
			b.ReportMetric(float64(last.Stats.LPPivots), "lpPivots")
			b.ReportMetric(float64(last.Stats.LP.ColdFallbacks()), "coldFallbacks")
			b.ReportMetric(float64(last.Stats.LPPivots)/float64(last.Stats.Nodes), "pivots/node")
		})
	}
}

// BenchmarkBigMAblation isolates the effect of LP-based bound tightening on
// the MILP solve (DESIGN.md design-choice ablation).
func BenchmarkBigMAblation(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[1]]
	for _, mode := range []struct {
		name    string
		tighten bool
	}{{"interval-bigM", false}, {"lp-tightened-bigM", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var nodes int
			ctx := benchCtx(b)
			for i := 0; i < b.N; i++ {
				res, err := pred.VerifySafety(ctx, vnn.Options{Tighten: mode.tighten})
				if err != nil {
					b.Fatal(err)
				}
				nodes = res.Stats.Nodes
			}
			b.ReportMetric(float64(nodes), "bbNodes")
		})
	}
}

// BenchmarkAttackVsVerify compares the incomplete PGD falsifier against the
// complete MILP verifier on the same property: the attack is orders of
// magnitude faster but only yields a lower bound (the testing-vs-formal gap
// of Sec. II B, measured).
func BenchmarkAttackVsVerify(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[1]]
	region := vnn.LeftOccupiedRegion()
	out := pred.MuLatOutputs()[0]
	b.Run("pgd-attack", func(b *testing.B) {
		var v float64
		for i := 0; i < b.N; i++ {
			res, err := attack.Maximize(pred.Net, region, out, rand.New(rand.NewSource(int64(i))), attack.Options{})
			if err != nil {
				b.Fatal(err)
			}
			v = res.Value
		}
		b.ReportMetric(v, "attackLatVel(m/s)")
	})
	b.Run("milp-verify", func(b *testing.B) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
		defer cancel()
		var v float64
		for i := 0; i < b.N; i++ {
			c, err := verify.Compile(ctx, pred.Net, region, false)
			if err != nil {
				b.Fatal(err)
			}
			res, err := c.MaxLinear(ctx, map[int]float64{out: 1}, verify.Options{})
			if err != nil {
				b.Fatal(err)
			}
			v = res.Value
		}
		b.ReportMetric(v, "verifiedLatVel(m/s)")
	})
}

// BenchmarkResilience measures the ATVA'17 maximum-resilience query: the
// certified ℓ∞ radius around a nominal left-occupied scene.
func BenchmarkResilience(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[0]]
	region := vnn.LeftOccupiedRegion()
	x0 := make([]float64, pred.Net.InputDim())
	for i, iv := range region.Box {
		x0[i] = (iv.Lo + iv.Hi) / 2
	}
	out := pred.MuLatOutputs()[0]
	thr := pred.Net.Forward(x0)[out] + 1
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	c, err := verify.Compile(ctx, pred.Net, region, false)
	if err != nil {
		b.Fatal(err)
	}
	var eps float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Resilience(ctx, x0, out, thr, verify.ResilienceOptions{MaxIterations: 6})
		if err != nil {
			b.Fatal(err)
		}
		eps = res.Epsilon
	}
	b.ReportMetric(eps, "certifiedRadius")
}

// BenchmarkFrontProperty verifies the second (longitudinal) safety
// property: no strong acceleration suggestion with a vehicle close ahead.
func BenchmarkFrontProperty(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[0]]
	var v float64
	ctx := benchCtx(b)
	for i := 0; i < b.N; i++ {
		res, err := pred.VerifyFrontSafety(ctx, vnn.Options{})
		if err != nil {
			b.Fatal(err)
		}
		v = res.Value
	}
	b.ReportMetric(v, "maxLongAccel")
}

// BenchmarkSubstrates micro-benchmarks the load-bearing kernels so
// regressions in the solver or simulator surface immediately.
func BenchmarkSubstrates(b *testing.B) {
	st := setup(b)
	pred := st.preds[benchWidths[0]]
	x := highway.RandomFeatureVector(rand.New(rand.NewSource(3)))

	b.Run("forward-84in", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pred.Net.Forward(x)
		}
	})
	b.Run("mdn-decode", func(b *testing.B) {
		raw := pred.Net.Forward(x)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gmm.Decode(raw)
		}
	})
	b.Run("sim-step-24veh", func(b *testing.B) {
		sim, err := highway.NewSim(highway.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Step(0.25)
		}
	})
	b.Run("observe-encode", func(b *testing.B) {
		sim, err := highway.NewSim(highway.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		sim.Run(50, 0.25)
		ego := sim.Vehicles[0]
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sim.Observe(ego).Encode()
		}
	})
	b.Run("train-epoch", func(b *testing.B) {
		tr := &train.Trainer{
			Net: pred.Net.Clone(), Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
			BatchSize: 64, Rng: rand.New(rand.NewSource(4)), ClipNorm: 20,
		}
		data := st.data
		if len(data) > 512 {
			data = data[:512]
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Epoch(data)
		}
	})
}

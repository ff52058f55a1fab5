package repro

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/dataval"
	"repro/internal/gmm"
	"repro/internal/highway"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/train"
	"repro/pkg/vnn"
)

// TestEndToEndCaseStudy is the cross-package contract test: simulate →
// validate → train → verify, with every hand-off checked. It is the
// repository's executable summary of the paper's case study.
func TestEndToEndCaseStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end case study in -short mode")
	}
	// 1. Data.
	cfg := highway.DefaultDatasetConfig()
	cfg.Episodes = 2
	cfg.StepsPerEpisode = 100
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := dataval.Sanitize(data, core.SafetyRules(1e-9))
	if len(clean) < 500 {
		t.Fatalf("only %d samples", len(clean))
	}

	// 2. Train.
	pred := core.NewPredictorNet(2, 6, 2, 99)
	trainer := &train.Trainer{
		Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(99)), ClipNorm: 20,
	}
	first := trainer.Epoch(clean)
	var last float64
	for i := 0; i < 7; i++ {
		last = trainer.Epoch(clean)
	}
	if last >= first {
		t.Fatalf("training did not reduce loss: %g -> %g", first, last)
	}

	// 3. The trained model produces valid mixtures on real scenes.
	sim, err := highway.NewSim(highway.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(100, 0.25)
	mix := pred.Predict(sim.Observe(sim.Vehicles[0]).Encode())
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}

	// 4. Attack lower bound vs verified maximum.
	region := vnn.LeftOccupiedRegion()
	atkBest := math.Inf(-1)
	rng := rand.New(rand.NewSource(5))
	for _, out := range pred.MuLatOutputs() {
		r, err := attack.Maximize(pred.Net, region, out, rng, attack.Options{Restarts: 4, Steps: 30})
		if err != nil {
			t.Fatal(err)
		}
		atkBest = math.Max(atkBest, r.Value)
	}
	ver, err := pred.VerifySafety(itCtx(t, 5*time.Minute), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !ver.Exact {
		t.Fatal("verification did not finish")
	}
	if atkBest > ver.Value+1e-5 {
		t.Fatalf("attack %g beats complete verifier %g", atkBest, ver.Value)
	}
	// The witness is a genuine left-occupied scene and replays exactly.
	if !highway.LeftOccupiedInFeatures(ver.Witness) {
		t.Fatal("witness lost the left-occupied precondition")
	}
	raw := pred.Net.Forward(ver.Witness)
	replay := math.Inf(-1)
	for _, out := range pred.MuLatOutputs() {
		replay = math.Max(replay, raw[out])
	}
	if math.Abs(replay-ver.Value) > 1e-5 {
		t.Fatalf("witness replay %g != verified %g", replay, ver.Value)
	}

	// 5. Quantized model verifies with the same machinery and lands near
	// the float bound.
	qnet, _, err := quant.Quantize(pred.Net, 8)
	if err != nil {
		t.Fatal(err)
	}
	qpred := &core.Predictor{Net: qnet, K: pred.K}
	qver, err := qpred.VerifySafety(itCtx(t, 5*time.Minute), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(qver.Value-ver.Value) > 1.0 {
		t.Fatalf("8-bit quantization moved the verified bound from %g to %g", ver.Value, qver.Value)
	}
}

// TestSerializationAcrossPipeline round-trips a trained network through
// JSON and confirms verification answers survive byte-for-byte.
func TestSerializationAcrossPipeline(t *testing.T) {
	pred := core.NewPredictorNet(1, 5, 2, 7)
	path := t.TempDir() + "/net.json"
	if err := pred.Net.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := nn.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	pred2 := &core.Predictor{Net: back, K: back.OutputDim() / gmm.RawPerComponent}
	a, err := pred.VerifySafety(context.Background(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := pred2.VerifySafety(context.Background(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Value-b.Value) > 1e-9 {
		t.Fatalf("serialization changed the verified bound: %g vs %g", a.Value, b.Value)
	}
}

// TestTable2ColdFallbackShare is the effort gate on the benchmark's own
// query: I2x8 VerifySafety, the table2_cold network. Every number checked
// is a deterministic counter, so the gate is machine-independent. Cold
// fallbacks — warm attempts thrown away for a two-phase solve at full
// tableau width — were 14 % of nodes before infeasible nodes got a
// pristine-data certificate and the dual loop its tolerance; a share above
// 2 % means the warm path has gone cold again. Pivots per node count failed
// warm attempts too, and sat at 40 then.
func TestTable2ColdFallbackShare(t *testing.T) {
	pred := trainPredictor(benchData(), benchDepth, 8)
	var seqNodes int
	for _, workers := range []int{1, 2} {
		res, err := pred.VerifySafety(itCtx(t, 10*time.Minute), vnn.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		if st.Nodes == 0 || st.LP.WarmSolves+st.LP.ColdSolves < st.Nodes {
			t.Fatalf("workers=%d: %d nodes, LP stats %+v", workers, st.Nodes, st.LP)
		}
		if fb := st.LP.ColdFallbacks(); 100*fb > 2*st.Nodes {
			t.Errorf("workers=%d: %d cold fallbacks over %d nodes, want at most 2%%: %+v", workers, fb, st.Nodes, st.LP)
		}
		if st.LPPivots >= 40*st.Nodes {
			t.Errorf("workers=%d: %d pivots over %d nodes, want fewer than 40 a node", workers, st.LPPivots, st.Nodes)
		}
		// The sequential search is pinned exactly: a change that claims to
		// make the LP faster without changing a pivot decision leaves these
		// two numbers alone, and one that moves them has to say why. (The
		// trained weights behind them go through math.Exp, which has its own
		// implementation per architecture, so the pin is amd64's.)
		if workers == 1 && runtime.GOARCH == "amd64" && (st.Nodes != 395 || st.LPPivots != 7390) {
			t.Errorf("workers=1: %d nodes / %d pivots, want exactly 395 / 7390", st.Nodes, st.LPPivots)
		}
		// Two workers run epochs of several nodes between barriers and must
		// not pay for them in speculation: their tree may differ from the
		// sequential one, but not grow by more than 5 %. (Which tree each
		// draws is as arch-dependent as the pin above.)
		if workers == 1 {
			seqNodes = st.Nodes
		} else if runtime.GOARCH == "amd64" && 100*st.Nodes > 105*seqNodes {
			t.Errorf("workers=%d: %d nodes, more than 5%% above workers=1's %d", workers, st.Nodes, seqNodes)
		}
		if st.MaxDepth < 1 || st.MaxDepth > st.Binaries || st.OpenHighWater < 1 || st.OpenHighWater > st.Nodes {
			t.Errorf("workers=%d: max depth %d over %d binaries, open high-water %d over %d nodes",
				workers, st.MaxDepth, st.Binaries, st.OpenHighWater, st.Nodes)
		}
	}
}

// itCtx builds a context with a deadline cleaned up with the test.
func itCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

package core

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/gmm"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
)

// testCtx builds a context with a deadline that is cleaned up with the test.
func testCtx(t *testing.T, d time.Duration) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	t.Cleanup(cancel)
	return ctx
}

func TestNewPredictorNetShape(t *testing.T) {
	p := NewPredictorNet(4, 10, 3, 1)
	if p.Net.InputDim() != 84 {
		t.Fatalf("input dim %d, want 84", p.Net.InputDim())
	}
	if p.Net.OutputDim() != 3*gmm.RawPerComponent {
		t.Fatalf("output dim %d", p.Net.OutputDim())
	}
	if got := p.Net.ArchString(); got != "I4x10" {
		t.Fatalf("arch %q", got)
	}
	if err := p.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Net.InputNames[highway.NeighborFeature(highway.Left, highway.NPPresence)] != "nbr.left.presence" {
		t.Fatal("input names not wired to highway features")
	}
}

func TestPredictDecodes(t *testing.T) {
	p := NewPredictorNet(2, 6, 2, 2)
	x := make([]float64, 84)
	for i := range x {
		x[i] = 0.5
	}
	mix := p.Predict(x)
	if err := mix.Validate(); err != nil {
		t.Fatal(err)
	}
	lat, long := p.SuggestAction(x)
	if math.IsNaN(lat) || math.IsNaN(long) {
		t.Fatal("NaN action")
	}
}

func TestMuLatOutputs(t *testing.T) {
	p := NewPredictorNet(1, 4, 3, 3)
	idx := p.MuLatOutputs()
	if len(idx) != 3 || idx[0] != 1 || idx[1] != 6 || idx[2] != 11 {
		t.Fatalf("MuLatOutputs = %v", idx)
	}
}

func TestLeftOccupiedRegion(t *testing.T) {
	r := vnn.LeftOccupiedRegion()
	if len(r.Box) != highway.FeatureDim {
		t.Fatalf("box dim %d", len(r.Box))
	}
	p := highway.NeighborFeature(highway.Left, highway.NPPresence)
	if r.Box[p].Lo != 1 || r.Box[p].Hi != 1 {
		t.Fatalf("left presence not pinned: %v", r.Box[p])
	}
	// A realistic left-occupied feature vector must be inside the region.
	cfg := highway.DefaultConfig()
	cfg.NumVehicles = 2
	s, err := highway.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Vehicles[0], s.Vehicles[1]
	a.Lane, a.TargetLane, a.Pos = 0, 0, 200
	b.Lane, b.TargetLane, b.Pos = 1, 1, 202
	obs := s.Observe(a)
	if !obs.LeftOccupied() {
		t.Fatal("setup broken: left not occupied")
	}
	if !r.Contains(obs.Encode(), 1e-9) {
		t.Fatal("realistic left-occupied encoding outside the verified region")
	}
}

func TestVerifySafetySmall(t *testing.T) {
	p := NewPredictorNet(2, 6, 2, 5)
	res, err := p.VerifySafety(testCtx(t, 30*time.Second), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("small predictor should verify exactly")
	}
	// The witness must be a left-occupied input and reproduce the value.
	if res.Witness == nil {
		t.Fatal("no witness")
	}
	if !highway.LeftOccupiedInFeatures(res.Witness) {
		t.Fatal("witness does not have left occupied")
	}
	raw := p.Net.Forward(res.Witness)
	best := math.Inf(-1)
	for _, i := range p.MuLatOutputs() {
		if raw[i] > best {
			best = raw[i]
		}
	}
	if math.Abs(best-res.Value) > 1e-5 {
		t.Fatalf("witness value %g != reported %g", best, res.Value)
	}
}

func TestProveSafetyBound(t *testing.T) {
	p := NewPredictorNet(2, 6, 2, 6)
	mx, err := p.VerifySafety(context.Background(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcome, results, err := p.ProveSafetyBound(context.Background(), mx.Value+0.5, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != vnn.Proved {
		t.Fatalf("outcome = %v above the max", outcome)
	}
	if len(results) != p.K {
		t.Fatalf("results = %d, want %d", len(results), p.K)
	}
	outcome, _, err = p.ProveSafetyBound(context.Background(), mx.Value-0.5, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != vnn.Violated {
		t.Fatalf("outcome = %v below the max", outcome)
	}
}

func TestSafetyRulesCatchRiskyData(t *testing.T) {
	rules := SafetyRules(1e-9)
	x := make([]float64, highway.FeatureDim)
	x[highway.NeighborFeature(highway.Left, highway.NPPresence)] = 1
	risky := train.Sample{X: x, Y: []float64{1.5, 0}} // left move, left occupied
	found := false
	for _, r := range rules {
		if r.Check(risky) != "" {
			found = true
		}
	}
	if !found {
		t.Fatal("risky sample passed all rules")
	}
	safe := train.Sample{X: x, Y: []float64{-0.5, 0}}
	for _, r := range rules {
		if msg := r.Check(safe); msg != "" {
			t.Fatalf("safe sample rejected by %s: %s", r.Name(), msg)
		}
	}
}

func TestRunPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline in -short mode")
	}
	ds := highway.DefaultDatasetConfig()
	ds.Episodes = 2
	ds.StepsPerEpisode = 80
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Depth: 2, Width: 8, Components: 2,
		Seed:          1,
		Dataset:       ds,
		Epochs:        8,
		VerifyTimeout: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arch != "I2x8" {
		t.Fatalf("arch %q", res.Arch)
	}
	if res.Samples == 0 {
		t.Fatal("no samples")
	}
	if !res.DataReport.Valid() && res.DataRemoved == 0 {
		t.Fatal("invalid data not sanitized")
	}
	if res.Traceability == nil || len(res.Traceability.Neurons) != 16 {
		t.Fatalf("traceability missing or wrong size")
	}
	if res.Coverage == nil || res.Coverage.Tests() == 0 {
		t.Fatal("coverage missing")
	}
	if res.BranchCount != "65536" { // 2^16
		t.Fatalf("branch count %s, want 65536", res.BranchCount)
	}
	if res.MaxLatVel == nil || !res.MaxLatVel.Exact {
		t.Fatal("verification incomplete")
	}
	// The incomplete attack can never beat the complete verifier.
	if res.AttackLatVel > res.MaxLatVel.Value+1e-5 {
		t.Fatalf("attack %g beats verified max %g", res.AttackLatVel, res.MaxLatVel.Value)
	}
	s := res.String()
	if !strings.Contains(s, "certification dossier") || !strings.Contains(s, "max lateral velocity") {
		t.Fatalf("dossier rendering incomplete:\n%s", s)
	}
}

func TestRunPipelineSkipVerify(t *testing.T) {
	ds := highway.DefaultDatasetConfig()
	ds.Episodes = 1
	ds.StepsPerEpisode = 40
	res, err := RunPipeline(context.Background(), PipelineConfig{
		Depth: 1, Width: 4, Components: 2,
		Seed:       2,
		Dataset:    ds,
		Epochs:     2,
		SkipVerify: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLatVel != nil {
		t.Fatal("verification ran despite SkipVerify")
	}
	if res.Elapsed <= 0 {
		t.Fatal("elapsed missing")
	}
}

func TestHintsReduceVerifiedMax(t *testing.T) {
	if testing.Short() {
		t.Skip("hints ablation in -short mode")
	}
	ds := highway.DefaultDatasetConfig()
	ds.Episodes = 2
	ds.StepsPerEpisode = 60
	run := func(hints bool) float64 {
		res, err := RunPipeline(context.Background(), PipelineConfig{
			Depth: 1, Width: 6, Components: 2,
			Seed: 3, Dataset: ds, Epochs: 10, Hints: hints,
			VerifyTimeout: 60 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.MaxLatVel.Value
	}
	plain := run(false)
	hinted := run(true)
	// The hinted run fine-tunes the identical base network (same seed), so
	// its verified maximum must not be meaningfully larger.
	if hinted > plain+0.1 {
		t.Fatalf("hints increased verified max: plain %g hinted %g", plain, hinted)
	}
}

// TestHintFineTuneLowersVerifiedMax checks the CEGIS hint loop directly on
// a trained predictor: fine-tuning under the property reduces the verified
// maximum relative to the same network's starting point.
func TestHintFineTuneLowersVerifiedMax(t *testing.T) {
	if testing.Short() {
		t.Skip("hint fine-tune in -short mode")
	}
	ds := highway.DefaultDatasetConfig()
	ds.Episodes = 2
	ds.StepsPerEpisode = 80
	data, err := highway.GenerateDataset(ds)
	if err != nil {
		t.Fatal(err)
	}
	pred := NewPredictorNet(2, 4, 2, 131)
	trainer := &train.Trainer{
		Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(4)), ClipNorm: 20,
	}
	trainer.Fit(data, 8)
	ctx := testCtx(t, 2*time.Minute)
	opts := vnn.Options{}
	before, err := pred.VerifySafety(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := vnn.HintFineTune(pred, data, vnn.HintConfig{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	after, err := pred.VerifySafety(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if after.Value >= before.Value {
		t.Fatalf("fine-tuning did not lower the verified max: %g -> %g", before.Value, after.Value)
	}
}

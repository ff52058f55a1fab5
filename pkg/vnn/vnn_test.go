package vnn_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/nn"
	"repro/pkg/vnn"
)

// absNet builds the hand-made |x0 - x1| network used across the tests.
func absNet(t testing.TB) *vnn.Network {
	t.Helper()
	net := &nn.Network{
		Name: "absdiff",
		Layers: []*nn.Layer{
			{W: [][]float64{{1, -1}, {-1, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
			{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
		},
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

func unitSquare() *vnn.Region {
	return &vnn.Region{Box: []vnn.Interval{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}}
}

// TestCompileOnceNoReencodeNoRetighten is the API's core contract:
// compiling the Table II width-10 predictor against the left-occupied
// region performs the encoding and tightening passes at compile time (its
// own CompilePhases say so), and then the row's max-query and prove-query
// answer back-to-back on the one compilation. That queries never
// re-encode or re-tighten is structural — encode and tightenLP have call
// sites only in internal/verify's compile.go and tighten.go, which CI
// greps for.
func TestCompileOnceNoReencodeNoRetighten(t *testing.T) {
	pred := core.NewPredictorNet(2, 10, 2, 1) // the width-10 row's shape
	ctx := context.Background()

	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), vnn.Options{Tighten: true})
	if err != nil {
		t.Fatal(err)
	}
	ph := cn.CompilePhases()
	if ph.EncodePasses == 0 {
		t.Fatal("compilation performed no encoding pass")
	}
	if ph.TightenPasses != 1 {
		t.Fatalf("compilation performed %d tightening passes, want 1", ph.TightenPasses)
	}

	// The width-10 row's two queries, back-to-back on the one compilation.
	maxRes, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
	if err != nil {
		t.Fatal(err)
	}
	props := make([]vnn.Property, 0, pred.K)
	for _, out := range pred.MuLatOutputs() {
		props = append(props, vnn.AtMost(out, maxRes.Value+0.5))
	}
	proveRes, err := vnn.Verify(ctx, cn, props...)
	if err != nil {
		t.Fatal(err)
	}

	if !maxRes.Exact {
		t.Fatal("width-10 max-query did not conclude")
	}
	// The max over K outputs is K searches, and its stats say so.
	if k := len(pred.MuLatOutputs()); maxRes.Stats.Solves != k {
		t.Fatalf("max over %d outputs reports %d solves", k, maxRes.Stats.Solves)
	}
	if got := vnn.Worst(proveRes); got != vnn.Proved {
		t.Fatalf("prove above the verified max: %v", got)
	}
}

// TestPropertyAlgebraOnHandNet answers every property shape on the tiny
// |x0-x1| network, where the answers are known in closed form.
func TestPropertyAlgebraOnHandNet(t *testing.T) {
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, absNet(t), unitSquare(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	results, err := vnn.Verify(ctx, cn,
		vnn.MaxOutput(0),                             // max |x0-x1| = 1
		vnn.MinOutput(0),                             // min = 0
		vnn.AtMost(0, 1.0),                           // holds (touching)
		vnn.AtMost(0, 0.5),                           // violated
		vnn.MaxLinear(map[int]float64{0: -2}),        // max -2|x0-x1| = 0
		vnn.LinearAtMost(map[int]float64{0: 2}, 2.5), // 2|x0-x1| ≤ 2.5 fails? max=2 ≤ 2.5 holds
	)
	if err != nil {
		t.Fatal(err)
	}
	if v := results[0].Value; math.Abs(v-1) > 1e-7 || !results[0].Exact {
		t.Fatalf("max = %g exact=%v, want 1", v, results[0].Exact)
	}
	if w := results[0].Witness; w == nil || math.Abs(math.Abs(w[0]-w[1])-1) > 1e-6 {
		t.Fatalf("max witness %v does not achieve |x0-x1|=1", w)
	}
	if v := results[1].Value; math.Abs(v) > 1e-7 {
		t.Fatalf("min = %g, want 0", v)
	}
	if results[1].LowerBound > results[1].Value+1e-9 {
		t.Fatalf("min bounds inverted: lower %g > value %g", results[1].LowerBound, results[1].Value)
	}
	if results[2].Outcome != vnn.Proved {
		t.Fatalf("≤1.0 should be proved, got %v", results[2].Outcome)
	}
	if results[3].Outcome != vnn.Violated {
		t.Fatalf("≤0.5 should be violated, got %v", results[3].Outcome)
	}
	if results[3].Witness == nil || results[3].Value <= 0.5 {
		t.Fatalf("violation carries no genuine counterexample: value %g witness %v",
			results[3].Value, results[3].Witness)
	}
	if v := results[4].Value; math.Abs(v) > 1e-7 {
		t.Fatalf("max -2|x0-x1| = %g, want 0", v)
	}
	if results[5].Outcome != vnn.Proved {
		t.Fatalf("2|x0-x1| ≤ 2.5 should be proved, got %v", results[5].Outcome)
	}
	if vnn.Worst(results) != vnn.Violated {
		t.Fatalf("Worst should report the violation, got %v", vnn.Worst(results))
	}
}

// TestAnytimeCancelledVerify checks the anytime contract end to end: a
// Verify under an already-cancelled context returns promptly, reports
// Inconclusive rather than an error, and still carries the sound
// interval-analysis bounds from compilation.
func TestAnytimeCancelledVerify(t *testing.T) {
	pred := core.NewPredictorNet(2, 10, 2, 3)
	bg := context.Background()
	cn, err := vnn.Compile(bg, pred.Net, vnn.LeftOccupiedRegion(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the true maximum, solved without interruption.
	full, err := vnn.VerifyOne(bg, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
	if err != nil {
		t.Fatal(err)
	}
	if !full.Exact {
		t.Fatal("reference solve did not conclude")
	}

	ctx, cancel := context.WithCancel(bg)
	cancel()
	start := time.Now()
	res, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
	if err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 10*time.Second {
		t.Fatalf("cancelled verify took %v", el)
	}
	if res.Exact || res.Outcome != vnn.Inconclusive {
		t.Fatalf("cancelled verify reported exact=%v outcome=%v", res.Exact, res.Outcome)
	}
	if math.IsInf(res.UpperBound, 1) || res.UpperBound < full.Value-1e-9 {
		t.Fatalf("anytime upper bound %g unsound or missing (true max %g)", res.UpperBound, full.Value)
	}

	// A threshold proof the interval analysis can discharge alone stays
	// Proved even under a dead context — no MILP is needed.
	ob := cn.OutputBounds()
	out := pred.MuLatOutputs()[0]
	pr, err := vnn.VerifyOne(ctx, cn, vnn.AtMost(out, ob[out].Hi+1))
	if err != nil {
		t.Fatal(err)
	}
	if pr.Outcome != vnn.Proved {
		t.Fatalf("interval-provable bound under dead context: %v, want proved", pr.Outcome)
	}
}

// TestProgressEvents checks that a compiled query streams progress and
// tags events with the property index.
func TestProgressEvents(t *testing.T) {
	pred := core.NewPredictorNet(2, 8, 2, 9)
	var events []vnn.Event
	opts := vnn.Options{Progress: func(ev vnn.Event) { events = append(events, ev) }}
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, pred.Net, vnn.LeftOccupiedRegion(), opts)
	if err != nil {
		t.Fatal(err)
	}
	out := pred.MuLatOutputs()
	if _, err := vnn.Verify(ctx, cn, vnn.MaxOutput(out[0]), vnn.MaxOutput(out[1])); err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("no progress events")
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Property != 0 && ev.Property != 1 {
			t.Fatalf("event tagged with property %d", ev.Property)
		}
		seen[ev.Property] = true
		if ev.HasIncumbent && ev.Incumbent > ev.Bound+1e-6 {
			t.Fatalf("incumbent %g above bound %g", ev.Incumbent, ev.Bound)
		}
	}
	if !seen[0] || !seen[1] {
		t.Fatalf("events missing for a property: %v", seen)
	}
}

// TestResilienceProperty runs the resilience search through the algebra.
func TestResilienceProperty(t *testing.T) {
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, absNet(t), unitSquare(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Around the center, |x0-x1| ≤ 0.5 holds for all |δ|∞ ≤ 0.25.
	res, err := vnn.VerifyOne(ctx, cn, vnn.ResilienceRadius([]float64{0.5, 0.5}, 0, 0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != vnn.Proved {
		t.Fatalf("resilience outcome %v", res.Outcome)
	}
	if res.Radius < 0.15 || res.Radius > 0.2500001 {
		t.Fatalf("certified radius %g, want ≈0.25", res.Radius)
	}
	if res.Iterations == 0 {
		t.Fatal("no binary-search iterations recorded")
	}
	if res.Stats.Nodes <= 0 || res.Stats.LPPivots <= 0 {
		t.Fatalf("%d probes reported %d nodes / %d pivots", res.Iterations, res.Stats.Nodes, res.Stats.LPPivots)
	}

	// A search that ran out of budget before proving any radius established
	// nothing: Inconclusive with radius 0, never Proved.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	res, err = vnn.VerifyOne(cancelled, cn, vnn.ResilienceRadius([]float64{0.5, 0.5}, 0, 0.5, 8))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != vnn.Inconclusive || res.Radius != 0 {
		t.Fatalf("cancelled resilience search: outcome %v radius %g, want inconclusive 0", res.Outcome, res.Radius)
	}
}

// TestGMMLoader round-trips a predictor network through JSON and checks
// the shared gmm-head validation path.
func TestGMMLoader(t *testing.T) {
	pred := core.NewPredictorNet(1, 4, 3, 2)
	path := t.TempDir() + "/net.json"
	if err := pred.Net.Save(path); err != nil {
		t.Fatal(err)
	}
	net, k, err := vnn.LoadGMMNetwork(path)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 || net.OutputDim() != pred.Net.OutputDim() {
		t.Fatalf("loaded k=%d outputs=%d", k, net.OutputDim())
	}
	if got := vnn.MuLatOutputs(k); len(got) != 3 || got[0] != 1 || got[2] != 11 {
		t.Fatalf("MuLatOutputs = %v", got)
	}
	// A non-gmm head must be rejected by the shared check.
	if _, err := vnn.GMMComponents(absNet(t)); err == nil {
		t.Fatal("non-gmm head accepted")
	}
}

// TestFalsifyUnderVerifiedMax ties the incomplete and complete analyses
// together: the strongest attack can never beat the verified maximum.
func TestFalsifyUnderVerifiedMax(t *testing.T) {
	pred := core.NewPredictorNet(2, 6, 2, 7)
	region := vnn.LeftOccupiedRegion()
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, pred.Net, region, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ver, err := vnn.VerifyOne(ctx, cn, vnn.MaxOverOutputs(pred.MuLatOutputs()...))
	if err != nil {
		t.Fatal(err)
	}
	atk, err := vnn.Falsify(pred.Net, region, pred.MuLatOutputs(), vnn.FalsifyOptions{Restarts: 4, Steps: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if atk.Value > ver.Value+1e-5 {
		t.Fatalf("attack %g beats complete verifier %g", atk.Value, ver.Value)
	}
	if atk.Evaluations == 0 || atk.Best == nil {
		t.Fatal("falsifier did no work")
	}
}

package vnn

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lp"
)

// portfolioNet builds a small deterministic ReLU network for analysis
// tests: 3 inputs, one hidden layer, 2 outputs.
func portfolioNet(t *testing.T, hidden int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	return NewNetwork(NetworkConfig{
		Name: "portfolio", InputDim: 3, Hidden: []int{hidden}, OutputDim: 2,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
}

func unitBoxRegion(dim int) *Region {
	box := make([]Interval, dim)
	for i := range box {
		box[i] = Interval{Lo: -1, Hi: 1}
	}
	return &Region{Box: box}
}

// validateSpec builds the spec's analysis and validates it against net over
// the unit box: the checks a service makes before admitting the spec.
func validateSpec(s *AnalysisSpec, net *Network) error {
	a, err := s.Analysis()
	if err != nil {
		return err
	}
	return a.Validate(net, unitBoxRegion(net.InputDim()))
}

func randomInputs(n, dim int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([][]float64, n)
	for i := range data {
		data[i] = make([]float64, dim)
		for j := range data[i] {
			data[i][j] = rng.Float64()*2 - 1
		}
	}
	return data
}

func TestAnalyzePortfolio(t *testing.T) {
	net := portfolioNet(t, 6)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := randomInputs(64, 3, 5)
	samples := make([]Sample, len(data))
	for i, x := range data {
		samples[i] = Sample{X: x, Y: []float64{0}}
	}
	findings, err := Analyze(context.Background(), cn,
		&Coverage{Data: data, MaxTests: 500, Seed: 7},
		&Traceability{Data: data, TopK: 2},
		&DataValidation{Data: samples, Rules: []DataRule{FiniteRule(), RangeRule(-1, 1)}},
		&Verification{Properties: []Property{MaxOutput(0), AtMost(0, 100)}},
		&Falsification{Outputs: []int{0}, Restarts: 2, Steps: 10, Seed: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 5 {
		t.Fatalf("findings = %d", len(findings))
	}
	wantKinds := []string{KindCoverage, KindTraceability, KindDataValidation, KindVerify, KindFalsify}
	for i, f := range findings {
		if f.Kind != wantKinds[i] {
			t.Fatalf("finding %d kind %q, want %q", i, f.Kind, wantKinds[i])
		}
	}
	cov := findings[0].Coverage
	if cov == nil || cov.Suite.Tests() < 64 {
		t.Fatalf("coverage finding missing or too small: %+v", cov)
	}
	if cov.Conditions != 6 || cov.BranchCombinations != "64" || cov.RequiredMCDCTests != 7 {
		t.Fatalf("MC/DC constants wrong: %+v", cov)
	}
	tr := findings[1].Traceability
	if tr == nil || len(tr.Neurons) != 6 || tr.Conditions == nil {
		t.Fatal("traceability finding incomplete")
	}
	dv := findings[2].DataValidation
	if dv == nil || dv.Report.Samples != 64 || !dv.Report.Valid() {
		t.Fatalf("data validation finding wrong: %+v", dv)
	}
	ver := findings[3].Verification
	if len(ver) != 2 || ver[0].Outcome != Proved || ver[1].Outcome != Proved {
		t.Fatalf("verification finding wrong: %+v", ver)
	}
	fa := findings[4].Falsification
	if fa == nil || fa.Best == nil {
		t.Fatal("falsification finding missing")
	}
	// The incomplete attack can never beat the complete verifier.
	if fa.Value > ver[0].Value+1e-9 {
		t.Fatalf("attack %g beats verified max %g", fa.Value, ver[0].Value)
	}
}

// TestTraceabilityReusesCompiledBounds is the end-to-end instrumentation
// check of the bounds-reuse contract: running a traceability analysis on a
// compiled network must perform zero additional propagation passes — the
// interval conditions come straight from the compiled artifact.
func TestTraceabilityReusesCompiledBounds(t *testing.T) {
	net := portfolioNet(t, 5)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	data := randomInputs(32, 3, 9)
	before := bounds.Passes()
	f, err := AnalyzeOne(context.Background(), cn, &Traceability{Data: data})
	if err != nil {
		t.Fatal(err)
	}
	if got := bounds.Passes() - before; got != 0 {
		t.Fatalf("traceability analysis performed %d propagation passes, want 0", got)
	}
	if f.Traceability.Conditions == nil {
		t.Fatal("conditions missing despite compiled bounds")
	}
	// The compiled pre-activation bounds are what the conditions must
	// reflect: a stable neuron in the compiled view must not be
	// conditional in the report.
	pre := cn.PreActivationBounds()
	for li, row := range pre {
		for j, iv := range row {
			stable := iv.Lo >= 0 || iv.Hi <= 0
			cond := f.Traceability.Conditions[li][j]
			if stable && cond == 0 { // trace.Conditional == 0
				t.Fatalf("neuron (%d,%d) stable in compiled bounds but conditional in report", li, j)
			}
		}
	}
}

// TestQuantFingerprintRoundTrip pins the quantization/wire contract:
// weights snapped to the exact b-bit grid survive quant → MarshalNetwork →
// UnmarshalNetwork → Fingerprint bit-identically, and distinct bit-widths
// produce distinct fingerprints.
func TestQuantFingerprintRoundTrip(t *testing.T) {
	net := portfolioNet(t, 8)
	region := unitBoxRegion(3)
	seen := map[string]int{}
	for _, bits := range []int{4, 6, 8, 12} {
		qnet, _, err := Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := Fingerprint(qnet, region, Options{})
		if err != nil {
			t.Fatal(err)
		}
		data, err := MarshalNetwork(qnet)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalNetwork(data)
		if err != nil {
			t.Fatal(err)
		}
		// Bit-identical weights after the wire round trip...
		for li, l := range qnet.Layers {
			for r, row := range l.W {
				for c, w := range row {
					if got := back.Layers[li].W[r][c]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("int%d layer %d w[%d][%d]: %x != %x", bits, li, r, c,
							math.Float64bits(got), math.Float64bits(w))
					}
				}
			}
		}
		// ...and therefore a bit-identical fingerprint.
		fp2, err := Fingerprint(back, region, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if fp2 != fp {
			t.Fatalf("int%d fingerprint changed across the wire: %s != %s", bits, fp2, fp)
		}
		if prev, dup := seen[fp]; dup {
			t.Fatalf("bit-widths %d and %d share fingerprint %s", prev, bits, fp)
		}
		seen[fp] = bits
	}
	// The quantized models must also differ from the float original.
	if fp0, err := Fingerprint(net, region, Options{}); err != nil {
		t.Fatal(err)
	} else if _, dup := seen[fp0]; dup {
		t.Fatal("a quantized fingerprint collides with the float model")
	}
}

// TestQuantSweepCompilesOncePerWidth asserts the sweep's cost contract:
// one compilation (one encoding pass) per bit-width, none for the
// baseline (which reuses the already-compiled network), and no
// re-encoding during any of the verification batches.
func TestQuantSweepCompilesOncePerWidth(t *testing.T) {
	net := portfolioNet(t, 6)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	props := []Property{MaxOutput(0), AtMost(0, 100)}
	bitsList := []int{8, 6, 4}

	var compiles, encodes int
	countingCompile := func(ctx context.Context, fp string, n *Network, r *Region, o Options) (*CompiledNetwork, error) {
		if fp == "" {
			t.Error("compile func received no fingerprint")
		}
		compiles++
		qcn, err := Compile(ctx, n, r, o)
		if err == nil {
			encodes += qcn.CompilePhases().EncodePasses
		}
		return qcn, err
	}
	f, err := AnalyzeOne(context.Background(), cn, &QuantSweep{
		Bits: bitsList, Properties: props, Compile: countingCompile,
	})
	if err != nil {
		t.Fatal(err)
	}
	if compiles != len(bitsList) {
		t.Fatalf("%d compiles for %d widths", compiles, len(bitsList))
	}
	if got := encodes; got != len(bitsList) {
		t.Fatalf("%d encoding passes for %d widths, want exactly one each", got, len(bitsList))
	}
	qs := f.QuantSweep
	if len(qs.Base) != len(props) || len(qs.Points) != len(bitsList) {
		t.Fatalf("finding shape: %d base, %d points", len(qs.Base), len(qs.Points))
	}
	for i, pt := range qs.Points {
		if pt.Bits != bitsList[i] || pt.Fingerprint == "" || len(pt.Results) != len(props) {
			t.Fatalf("point %d malformed: %+v", i, pt)
		}
		// Coarser grids cannot shrink the weight perturbation.
		if i > 0 && pt.Info.MaxWeightError+1e-12 < qs.Points[i-1].Info.MaxWeightError {
			t.Fatalf("weight error not monotone: int%d %g < int%d %g",
				pt.Bits, pt.Info.MaxWeightError, qs.Points[i-1].Bits, qs.Points[i-1].Info.MaxWeightError)
		}
	}
}

// TestQuantSweepMatchesDirectPath pins sweep answers to the plain
// compile-and-verify path: the sweep is a convenience, not a different
// engine.
func TestQuantSweepMatchesDirectPath(t *testing.T) {
	net := portfolioNet(t, 6)
	region := unitBoxRegion(3)
	opts := Options{Workers: 1}
	cn, err := Compile(context.Background(), net, region, opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := AnalyzeOne(context.Background(), cn, &QuantSweep{
		Bits: []int{6}, Properties: []Property{MaxOutput(1)},
	})
	if err != nil {
		t.Fatal(err)
	}
	qnet, _, err := Quantize(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	qcn, err := Compile(context.Background(), qnet, region, opts)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := VerifyOne(context.Background(), qcn, MaxOutput(1))
	if err != nil {
		t.Fatal(err)
	}
	got := f.QuantSweep.Points[0].Results[0]
	if math.Float64bits(got.Value) != math.Float64bits(direct.Value) ||
		math.Float64bits(got.UpperBound) != math.Float64bits(direct.UpperBound) {
		t.Fatalf("sweep %v/%v != direct %v/%v", got.Value, got.UpperBound, direct.Value, direct.UpperBound)
	}
}

func TestAnalyzeValidatesBeforeRunning(t *testing.T) {
	net := portfolioNet(t, 4)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	cases := []Analysis{
		&Coverage{}, // no data, no budget
		&Coverage{Data: [][]float64{{1, 2}}, MaxTests: 10}, // wrong dim
		&Traceability{}, // no data
		&Traceability{Data: [][]float64{{0, 0, 0}}, FeatureNames: []string{"a"}},
		&QuantSweep{Bits: []int{1}, Properties: []Property{MaxOutput(0)}},
		&QuantSweep{Bits: []int{8}},
		&QuantSweep{Bits: []int{8}, Properties: []Property{MaxOutput(9)}}, // bad output
		&QuantSweep{Bits: []int{8}, Properties: []Property{MaxOutput(0)}, Base: []*Result{}},
		&Verification{Properties: []Property{MaxOutput(9)}},  // bad output
		&Verification{Properties: []Property{AtMost(-1, 1)}}, // negative output
		&Verification{Properties: []Property{MinOutput(2)}},  // == dim
		&Verification{Properties: []Property{MaxLinear(map[int]float64{5: 1})}},
		&DataValidation{Rules: []DataRule{FiniteRule()}},
		&DataValidation{Data: []Sample{{X: []float64{0}}}},
		&Verification{},
		&Falsification{},
		&Falsification{Outputs: []int{7}},
	}
	for i, a := range cases {
		if _, err := Analyze(context.Background(), cn, a); err == nil {
			t.Fatalf("case %d (%s): invalid analysis accepted", i, a.Kind())
		}
	}
	if _, err := Analyze(context.Background(), cn); err == nil {
		t.Fatal("empty batch accepted")
	}
}

func TestAnalysisSpecRoundTrip(t *testing.T) {
	specs := []AnalysisSpec{
		{Kind: KindVerify, Properties: []PropertySpec{{Kind: "max", Outputs: []int{0, 1}}}},
		{Kind: KindCoverage, MaxTests: 100, Seed: 3},
		{Kind: KindTraceability, Data: [][]float64{{0, 0, 0}}},
		{Kind: KindQuantSweep, Bits: []int{8, 4}, Properties: []PropertySpec{{Kind: "min", Output: intPtr(0)}}},
		{Kind: KindDataValidation, Data: [][]float64{{0, 0, 0}}, Rules: []DataRuleSpec{{Kind: "finite"}}},
		{Kind: KindFalsify, Outputs: []int{1}},
	}
	net := portfolioNet(t, 4)
	for i := range specs {
		a, err := specs[i].Analysis()
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		if a.Kind() != specs[i].Kind {
			t.Fatalf("spec %d kind %q != %q", i, a.Kind(), specs[i].Kind)
		}
		if err := validateSpec(&specs[i], net); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
	}

	bad := []AnalysisSpec{
		{},
		{Kind: "nope"},
		{Kind: KindVerify},
		{Kind: KindCoverage},
		{Kind: KindQuantSweep, Bits: []int{8}},
		{Kind: KindDataValidation, Data: [][]float64{{0}}},
		{Kind: KindDataValidation, Data: [][]float64{{0}}, Rules: []DataRuleSpec{{Kind: "range"}}},
		{Kind: KindDataValidation, Data: [][]float64{{0}}, Labels: [][]float64{{0}, {1}}, Rules: []DataRuleSpec{{Kind: "finite"}}},
		{Kind: KindFalsify},
	}
	for i := range bad {
		if _, err := bad[i].Analysis(); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}

	badFor := []AnalysisSpec{
		{Kind: KindFalsify, Outputs: []int{9}},
		{Kind: KindTraceability, Data: [][]float64{{0}}},
		{Kind: KindQuantSweep, Bits: []int{99}, Properties: []PropertySpec{{Kind: "max", Outputs: []int{0}}}},
		{Kind: KindVerify, Properties: []PropertySpec{{Kind: "max", Outputs: []int{9}}}},
	}
	for i := range badFor {
		if _, err := badFor[i].Analysis(); err != nil {
			continue // shape-invalid is fine too
		}
		if err := validateSpec(&badFor[i], net); err == nil {
			t.Fatalf("mismatched spec %d accepted for network", i)
		}
	}
}

func TestAnalysisReportJSON(t *testing.T) {
	net := portfolioNet(t, 5)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(context.Background(), cn,
		&Verification{Properties: []Property{MaxOutput(0)}},
		&Coverage{MaxTests: 200, Seed: 1},
		&QuantSweep{Bits: []int{8}, Properties: []Property{MaxOutput(0)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewAnalysisReport(net, findings)
	if rep.Arch != net.ArchString() || len(rep.Analyses) != 3 {
		t.Fatalf("report shape: arch %q, %d analyses", rep.Arch, len(rep.Analyses))
	}
	if rep.Worst != "proved" {
		t.Fatalf("worst = %q", rep.Worst)
	}
	// Verification results are flattened for legacy consumers.
	if len(rep.Results) != 1 || rep.Results[0].Outcome != "proved" {
		t.Fatalf("flattened results: %+v", rep.Results)
	}
	if rep.Analyses[1].Coverage == nil || rep.Analyses[1].Coverage.Tests == 0 {
		t.Fatalf("coverage JSON missing: %+v", rep.Analyses[1])
	}
	qj := rep.Analyses[2].QuantSweep
	if qj == nil || len(qj.Points) != 1 || qj.Points[0].Fingerprint == "" {
		t.Fatalf("quant sweep JSON missing: %+v", qj)
	}
}

// TestQuantSweepReusesProvidedBaseline: a caller-supplied Base skips the
// baseline re-verification and is echoed in the finding.
func TestQuantSweepReusesProvidedBaseline(t *testing.T) {
	net := portfolioNet(t, 6)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prop := MaxOutput(0)
	baseline, err := VerifyOne(context.Background(), cn, prop)
	if err != nil {
		t.Fatal(err)
	}
	f, err := AnalyzeOne(context.Background(), cn, &QuantSweep{
		Bits: []int{8}, Properties: []Property{prop}, Base: []*Result{baseline},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.QuantSweep.Base[0] != baseline {
		t.Fatal("provided baseline not reused")
	}
	if math.IsNaN(f.QuantSweep.Points[0].MaxBoundDelta) {
		t.Fatal("deltas not measured against the provided baseline")
	}
}

// TestQuantSweepAnytimeTruncation: a budget that expires mid-ladder
// truncates the sweep to the widths already measured instead of erroring
// away the whole finding.
func TestQuantSweepAnytimeTruncation(t *testing.T) {
	net := portfolioNet(t, 6)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	prop := MaxOutput(0)
	baseline, err := VerifyOne(context.Background(), cn, prop)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	expiringCompile := func(c context.Context, fp string, n *Network, r *Region, o Options) (*CompiledNetwork, error) {
		calls++
		if calls >= 2 {
			// The budget runs out while the second width compiles (the
			// shape of a cached-compile waiter giving up).
			cancel()
			return nil, ctx.Err()
		}
		return Compile(c, n, r, o)
	}
	f, err := AnalyzeOne(ctx, cn, &QuantSweep{
		Bits: []int{8, 6, 4}, Properties: []Property{prop},
		Base: []*Result{baseline}, Compile: expiringCompile,
	})
	if err != nil {
		t.Fatalf("expired budget must truncate, not error: %v", err)
	}
	if len(f.QuantSweep.Points) != 1 || f.QuantSweep.Points[0].Bits != 8 {
		t.Fatalf("ladder not truncated to the measured widths: %+v", f.QuantSweep.Points)
	}
}

// TestAnalysisReportWithoutFormalVerdictIsInconclusive guards the wire
// contract that a report with no verification results never claims
// "proved": a falsify- or coverage-only batch carries no formal verdict.
func TestAnalysisReportWithoutFormalVerdictIsInconclusive(t *testing.T) {
	net := portfolioNet(t, 4)
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	findings, err := Analyze(context.Background(), cn,
		&Coverage{MaxTests: 50, Seed: 1},
		&Falsification{Outputs: []int{0}, Restarts: 1, Steps: 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewAnalysisReport(net, findings)
	if rep.Worst != "inconclusive" {
		t.Fatalf("worst = %q for a formal-free batch, want inconclusive", rep.Worst)
	}
}

// TestFalsificationCutBeforeFirstEvaluation: an attack interrupted before
// it evaluated anything has no value to report (-Inf is not a finding, and
// not JSON either), so the analysis answers with the interruption.
func TestFalsificationCutBeforeFirstEvaluation(t *testing.T) {
	cn, err := Compile(context.Background(), portfolioNet(t, 4), unitBoxRegion(3), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if f, err := AnalyzeOne(ctx, cn, &Falsification{Outputs: []int{0}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled attack answered %+v, %v; want context.Canceled", f, err)
	}
}

// TestCoverageGenerationRespectsLinearConstraints: generated tests for a
// linearly constrained region must all lie inside the region, not just
// its bounding box.
func TestCoverageGenerationRespectsLinearConstraints(t *testing.T) {
	net := portfolioNet(t, 6)
	region := unitBoxRegion(3)
	// x0 + x1 <= 0: half of the box is out of region.
	region.Linear = []LinearConstraint{{
		Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 0,
	}}
	cn, err := Compile(context.Background(), net, region, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	f, err := AnalyzeOne(context.Background(), cn, &Coverage{MaxTests: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Coverage.Generated) == 0 {
		t.Fatal("nothing generated inside the constrained region")
	}
	for i, x := range f.Coverage.Generated {
		if x[0]+x[1] > 1e-9 {
			t.Fatalf("generated input %d violates the region constraint: %v", i, x)
		}
	}
}

// TestAnalyzeProgressTagsAnalysisIndex checks the progress stream contract:
// events emitted during an Analyze batch carry the emitting analysis's
// index on top of the property index.
func TestAnalyzeProgressTagsAnalysisIndex(t *testing.T) {
	net := portfolioNet(t, 10)
	var events []Event
	cn, err := Compile(context.Background(), net, unitBoxRegion(3), Options{
		Workers:  1,
		Progress: func(ev Event) { events = append(events, ev) },
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Analyze(context.Background(), cn,
		&Verification{Properties: []Property{MaxOutput(0)}},
		&Verification{Properties: []Property{MaxOutput(1)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, ev := range events {
		if ev.Analysis < 0 || ev.Analysis > 1 {
			t.Fatalf("event with analysis index %d", ev.Analysis)
		}
		seen[ev.Analysis] = true
	}
	// Terminal events are always emitted (force flush at solve end), so
	// both analyses must have produced at least one tagged event.
	if !seen[0] || !seen[1] {
		t.Fatalf("missing tagged events: %v (got %d events)", seen, len(events))
	}
}

func intPtr(v int) *int { return &v }

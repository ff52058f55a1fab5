// The dependability portfolio API. The paper's certification argument is
// not one analysis but a portfolio (Sec. II, Table I): requirement
// traceability, structural coverage, data validation, formal verification,
// and quantization each contribute one row of the dossier. Analysis is the
// abstraction that makes every row a first-class citizen of the public
// API: an Analysis validates itself against a CompiledNetwork and runs to
// a typed Finding, and Analyze batches any mix of analyses over one
// compiled artifact with the same context/anytime semantics Verify has.
//
//	cn, _ := vnn.Compile(ctx, net, region, opts)
//	findings, _ := vnn.Analyze(ctx, cn,
//	    &vnn.Coverage{MaxTests: 2000, Seed: 1},
//	    &vnn.Traceability{Data: inputs},
//	    &vnn.QuantSweep{Bits: []int{8, 6, 4}, Properties: props},
//	    &vnn.Verification{Properties: props})
//
// Analyses reuse the compiled artifact instead of recomputing it: the
// traceability interval conditions read the compiled pre-activation
// bounds (zero extra propagation passes), coverage generation samples the
// compiled region, and a quantization sweep re-verifies the same
// properties against per-width recompiles that a service can cache and
// deduplicate (see QuantSweep.Compile).
package vnn

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/coverage"
	"repro/internal/dataval"
	"repro/internal/quant"
	"repro/internal/trace"
)

// Analysis kinds, as they appear in Finding.Kind and on the wire
// (AnalysisSpec.Kind, FindingJSON.Kind, per-kind service metrics).
const (
	KindVerify         = "verify"
	KindCoverage       = "coverage"
	KindTraceability   = "traceability"
	KindQuantSweep     = "quant_sweep"
	KindDataValidation = "data_validation"
	KindFalsify        = "falsify"
	KindMonitorAudit   = "monitor_audit"
)

// Analysis is one element of the dependability portfolio: a self-contained
// question about a compiled network that runs to a typed Finding. All
// concrete analyses — Verification, Coverage, Traceability, QuantSweep,
// DataValidation, Falsification — satisfy it; batch any mix through
// Analyze.
type Analysis interface {
	// Kind names the analysis (one of the Kind* constants).
	Kind() string
	// Validate checks the analysis against the network and region it will
	// run on (a region valid for the network) — dimensions, index ranges,
	// parameter domains, each property's engine preconditions — so callers
	// (and the service) can reject a malformed request before any work.
	Validate(net *Network, region *Region) error
	// Run executes the analysis. The context carries the anytime
	// contract: analyses embedding verification queries return their
	// interval-bound anytime answers when it fires, never a bare error.
	Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error)
}

// Finding is the typed result of one analysis. Kind selects which payload
// field is populated; the wire form is FindingJSON (see Report.Analyses).
type Finding struct {
	// Kind echoes the analysis kind that produced this finding.
	Kind string
	// Elapsed is the wall-clock cost of the analysis.
	Elapsed time.Duration

	// Verification holds property results (KindVerify).
	Verification []*Result
	// Coverage holds the structural-coverage finding (KindCoverage).
	Coverage *CoverageFinding
	// Traceability holds the neuron-to-feature report (KindTraceability).
	Traceability *TraceabilityReport
	// QuantSweep holds the bit-width ladder finding (KindQuantSweep).
	QuantSweep *QuantSweepFinding
	// DataValidation holds the rule-check finding (KindDataValidation).
	DataValidation *DataValidationFinding
	// Falsification holds the attack finding (KindFalsify).
	Falsification *FalsifyResult
	// Monitor holds the runtime-monitoring finding (KindMonitorAudit).
	Monitor *MonitorFinding
}

// Analyze runs a batch of analyses against one compiled network. Every
// analysis is validated before any runs; execution is then sequential in
// the given order (individual analyses may parallelize internally per the
// compile options). The context governs the whole batch exactly as in
// Verify: embedded verification queries return anytime bounds when it
// fires rather than erroring, so an interrupted portfolio still yields a
// usable (if partly inconclusive) dossier.
//
// Progress events from embedded queries are tagged with the index of the
// emitting analysis (Event.Analysis) on top of the property index.
func Analyze(ctx context.Context, cn *CompiledNetwork, analyses ...Analysis) ([]*Finding, error) {
	if len(analyses) == 0 {
		return nil, fmt.Errorf("vnn: Analyze needs at least one analysis")
	}
	for i, a := range analyses {
		if err := a.Validate(cn.Net(), cn.Region()); err != nil {
			return nil, fmt.Errorf("vnn: analysis %d (%s): %w", i, a.Kind(), err)
		}
	}
	findings := make([]*Finding, len(analyses))
	for i, a := range analyses {
		acn := cn
		if cn.opts.Progress != nil {
			opts := cn.opts
			idx, p := i, opts.Progress
			opts.Progress = func(ev Event) {
				ev.Analysis = idx
				p(ev)
			}
			acn = cn.WithOptions(opts)
		}
		start := time.Now()
		f, err := a.Run(ctx, acn)
		if err != nil {
			return nil, fmt.Errorf("vnn: analysis %d (%s): %w", i, a.Kind(), err)
		}
		f.Kind = a.Kind()
		f.Elapsed = time.Since(start)
		findings[i] = f
	}
	return findings, nil
}

// AnalyzeOne runs a single analysis; sugar over Analyze.
func AnalyzeOne(ctx context.Context, cn *CompiledNetwork, a Analysis) (*Finding, error) {
	fs, err := Analyze(ctx, cn, a)
	if err != nil {
		return nil, err
	}
	return fs[0], nil
}

// Verification is property verification expressed as an analysis kind: the
// batch Verify query as one row of the portfolio, so a certification run
// can mix formal proofs with coverage, traceability and quantization in a
// single Analyze call.
type Verification struct {
	// Properties is the batch to answer on the shared compilation.
	Properties []Property
}

// Kind returns KindVerify.
func (v *Verification) Kind() string { return KindVerify }

// Validate checks the property batch is non-empty and that the engine
// will answer every property on net over region.
func (v *Verification) Validate(net *Network, region *Region) error {
	return validateProperties(net, region, v.Properties)
}

// validateProperties rejects an empty batch and any property the engine
// would refuse, before any search or sibling analysis runs.
func validateProperties(net *Network, region *Region, props []Property) error {
	if len(props) == 0 {
		return fmt.Errorf("needs at least one property")
	}
	for i, p := range props {
		if err := p.validate(net, region); err != nil {
			return fmt.Errorf("property %d (%s): %w", i, p, err)
		}
	}
	return nil
}

// Run answers the property batch via Verify.
func (v *Verification) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	results, err := Verify(ctx, cn, v.Properties...)
	if err != nil {
		return nil, err
	}
	return &Finding{Verification: results}, nil
}

// CoverageFinding is the structural-coverage row of the portfolio: the
// accumulated suite plus the MC/DC argument constants of the paper's
// Sec. II (branch blow-up, condition-coverage lower bound).
type CoverageFinding struct {
	// Suite accumulates coverage over dataset and generated inputs.
	Suite *CoverageSuite
	// Generated lists the coverage-improving inputs kept by generation
	// (nil when the analysis only scored provided data).
	Generated [][]float64
	// Conditions is the number of ReLU branching conditions.
	Conditions int
	// BranchCombinations is 2^Conditions as a decimal string — the size of
	// the exhaustive branch-coverage space.
	BranchCombinations string
	// RequiredMCDCTests is the MC/DC lower bound on test-suite size.
	RequiredMCDCTests int
}

// Coverage measures structural test coverage of the compiled network over
// its region: dataset inputs are scored first, then (when MaxTests > 0) a
// coverage-guided generator seeded by Seed tops the suite up with inputs
// sampled from the compiled region's box. The explicit seed makes
// generated suites reproducible across runs and across the service.
type Coverage struct {
	// Data are inputs to score before any generation (e.g. the training
	// set); may be nil when MaxTests > 0.
	Data [][]float64
	// MaxTests bounds coverage-guided generation; 0 disables generation
	// (Data must then be non-empty).
	MaxTests int
	// TargetSign stops generation once sign coverage reaches this
	// fraction; 0 means 1.0.
	TargetSign float64
	// Seed seeds the generator's random source.
	Seed int64
}

// Kind returns KindCoverage.
func (c *Coverage) Kind() string { return KindCoverage }

// Validate checks the dataset dimensions and that the analysis has work.
func (c *Coverage) Validate(net *Network, _ *Region) error {
	if len(c.Data) == 0 && c.MaxTests <= 0 {
		return fmt.Errorf("coverage needs data or a max_tests generation budget")
	}
	if c.MaxTests < 0 {
		return fmt.Errorf("coverage max_tests %d is negative", c.MaxTests)
	}
	return validateInputDims(net, c.Data)
}

// Run scores the data and generates additional tests over the region box.
func (c *Coverage) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	net := cn.Net()
	suite := coverage.NewSuite(net)
	for _, x := range c.Data {
		if err := ctx.Err(); err != nil {
			break // anytime: report the coverage accumulated so far
		}
		suite.Add(x)
	}
	f := &CoverageFinding{
		Suite:              suite,
		Conditions:         coverage.ReLUConditions(net),
		BranchCombinations: coverage.BranchCombinations(net).String(),
		RequiredMCDCTests:  coverage.RequiredTests(net),
	}
	if c.MaxTests > 0 && ctx.Err() == nil {
		lo, hi, genOpts := regionSampling(ctx, cn.Region())
		genOpts.MaxTests = c.MaxTests
		genOpts.TargetSign = c.TargetSign
		f.Generated = suite.Generate(lo, hi, coverageSource(c.Seed), genOpts)
	}
	return &Finding{Coverage: f}, nil
}

// regionSampling builds the shared setup of every region-sampling
// analysis: the region box as parallel lo/hi slices, cancellation
// (request deadline, server drain) wired into the sampling loop — what
// was scored so far is the anytime answer — and, when the region is a
// box intersected with linear constraints, an Accept filter so results
// are never overstated by out-of-region inputs.
func regionSampling(ctx context.Context, region *Region) (lo, hi []float64, opts coverage.GenerateOptions) {
	lo = make([]float64, len(region.Box))
	hi = make([]float64, len(region.Box))
	for i, iv := range region.Box {
		lo[i], hi[i] = iv.Lo, iv.Hi
	}
	opts.Cancel = func() bool { return ctx.Err() != nil }
	if len(region.Linear) > 0 {
		opts.Accept = func(x []float64) bool { return region.Contains(x, 1e-9) }
	}
	return lo, hi, opts
}

// Traceability computes the neuron-to-feature traceability report over a
// dataset. The interval activation conditions reuse the compiled network's
// already-proven pre-activation bounds — no propagation pass is repeated
// (and under Options.Tighten the conditions inherit the tightened bounds).
type Traceability struct {
	// Data are the inputs activation statistics are computed over.
	Data [][]float64
	// FeatureNames labels attribution lists; defaults to the network's
	// input names (then to x0, x1, ...).
	FeatureNames []string
	// TopK limits attribution lists; 0 means 5.
	TopK int
}

// Kind returns KindTraceability.
func (tr *Traceability) Kind() string { return KindTraceability }

// Validate checks the dataset shape against the network.
func (tr *Traceability) Validate(net *Network, _ *Region) error {
	if len(tr.Data) == 0 {
		return fmt.Errorf("traceability needs at least one data point")
	}
	if n := len(tr.FeatureNames); n != 0 && n != net.InputDim() {
		return fmt.Errorf("traceability has %d feature names for %d inputs", n, net.InputDim())
	}
	return validateInputDims(net, tr.Data)
}

// Run computes the traceability report on the compiled bounds.
func (tr *Traceability) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	names := tr.FeatureNames
	if names == nil && len(cn.Net().InputNames) == cn.Net().InputDim() {
		names = cn.Net().InputNames
	}
	rep, err := trace.Analyze(cn.Net(), tr.Data, names, trace.Options{
		TopK:      tr.TopK,
		PreBounds: cn.c.PreActivationBounds(),
	})
	if err != nil {
		return nil, err
	}
	return &Finding{Traceability: rep}, nil
}

// CompileFunc produces a compiled network; QuantSweep calls it once per
// bit-width, passing the workload's already-computed fingerprint so a
// caching implementation need not hash the model again. The default
// ignores the fingerprint and calls Compile; the verification service
// substitutes a fingerprint-keyed cached compile so identical sweeps from
// many clients collapse to one compilation per width (and hands its model
// registry the same shape for recovery's recompiles).
type CompileFunc func(ctx context.Context, fingerprint string, net *Network, region *Region, opts Options) (*CompiledNetwork, error)

// QuantPoint is one rung of the bit-width ladder.
type QuantPoint struct {
	// Bits is the quantization width.
	Bits int
	// Info reports what quantization did to the weights.
	Info *QuantInfo
	// Fingerprint identifies the quantized compile workload — the key a
	// service caches the recompile under.
	Fingerprint string
	// CompileTime is the build cost of the quantized artifact (whoever
	// paid it; a cached compile reports the original cost).
	CompileTime time.Duration
	// Results answers the sweep's properties on the quantized model.
	Results []*Result
	// MaxValueDelta is the largest |witnessed value − float witnessed
	// value| across properties where both sides have witnesses; NaN when
	// no pair was comparable.
	MaxValueDelta float64
	// MaxBoundDelta is the largest |proven upper bound − float proven
	// upper bound| across properties where both are finite; NaN when no
	// pair was comparable.
	MaxBoundDelta float64
}

// QuantSweepFinding is the quantization row of the portfolio: the float
// baseline plus one QuantPoint per requested width.
type QuantSweepFinding struct {
	// Base answers the properties on the float model (the compiled
	// network the sweep ran against).
	Base []*Result
	// Points holds one entry per bit-width, in request order. The ladder
	// is anytime: when the context expires mid-sweep, Points is
	// truncated to the widths measured before the budget ran out.
	Points []QuantPoint
}

// QuantSweep quantizes the compiled network to each bit-width, recompiles
// the quantized model over the same region and options, and re-verifies
// the same properties — reporting per-width verified bounds and their
// deltas against the float baseline (the paper's concluding remark (ii):
// quantized networks as a route to scalable verification, made
// measurable). Each width costs exactly one compilation; a service
// deduplicates even that via CompileFunc.
type QuantSweep struct {
	// Bits lists the widths to sweep, each in [2, 16].
	Bits []int
	// Properties is the batch re-verified at every width.
	Properties []Property
	// Base, when non-nil, supplies already-computed float-model results
	// for Properties (one per property, in order): the sweep measures
	// deltas against it instead of re-solving the baseline — callers
	// that just answered the same batch on the same compiled network
	// (cmd/table2's width loop) skip its most expensive solve.
	Base []*Result
	// Compile overrides how per-width recompiles are produced; nil means
	// Compile. The verification service injects its fingerprint-keyed
	// cache here.
	Compile CompileFunc
}

// Kind returns KindQuantSweep.
func (q *QuantSweep) Kind() string { return KindQuantSweep }

// Validate checks widths and the property batch, on the float network and
// on each quantized one.
func (q *QuantSweep) Validate(net *Network, region *Region) error {
	if len(q.Bits) == 0 {
		return fmt.Errorf("quant sweep needs at least one bit-width")
	}
	for _, b := range q.Bits {
		if b < 2 || b > 16 {
			return fmt.Errorf("quant sweep bit-width %d outside [2, 16]", b)
		}
	}
	if err := validateProperties(net, region, q.Properties); err != nil {
		return fmt.Errorf("quant sweep: %w", err)
	}
	// Every rung re-verifies the batch on its own quantized network, whose
	// values (a resilience query's nominal one) are not the float model's.
	for _, b := range q.Bits {
		qnet, _, err := quant.Quantize(net, b)
		if err != nil {
			return err
		}
		if err := validateProperties(qnet, region, q.Properties); err != nil {
			return fmt.Errorf("quant sweep at %d bits: %w", b, err)
		}
	}
	if q.Base != nil && len(q.Base) != len(q.Properties) {
		return fmt.Errorf("quant sweep has %d baseline results for %d properties", len(q.Base), len(q.Properties))
	}
	return nil
}

// Run walks the bit-width ladder.
func (q *QuantSweep) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	compile := q.Compile
	if compile == nil {
		compile = func(ctx context.Context, _ string, net *Network, region *Region, opts Options) (*CompiledNetwork, error) {
			return Compile(ctx, net, region, opts)
		}
	}
	base := q.Base
	if base == nil {
		var err error
		if base, err = Verify(ctx, cn, q.Properties...); err != nil {
			return nil, err
		}
	}
	f := &QuantSweepFinding{Base: base, Points: make([]QuantPoint, 0, len(q.Bits))}
	for _, bits := range q.Bits {
		qnet, info, err := quant.Quantize(cn.Net(), bits)
		if err != nil {
			return nil, err
		}
		fp, err := Fingerprint(qnet, cn.Region(), cn.opts)
		if err != nil {
			return nil, err
		}
		qcn, err := compile(ctx, fp, qnet, cn.Region(), cn.opts)
		if err != nil {
			// Anytime: an expired budget truncates the ladder at this
			// width (a cached-compile waiter gives up with the context's
			// error) — the widths already measured remain a sound,
			// partial finding. A genuine compile failure still errors.
			if ctx.Err() != nil {
				break
			}
			return nil, err
		}
		results, err := Verify(ctx, qcn.WithOptions(cn.opts), q.Properties...)
		if err != nil {
			return nil, err
		}
		pt := QuantPoint{
			Bits:          bits,
			Info:          info,
			Fingerprint:   fp,
			CompileTime:   qcn.CompileTime(),
			Results:       results,
			MaxValueDelta: math.NaN(),
			MaxBoundDelta: math.NaN(),
		}
		for i, r := range results {
			b := base[i]
			if r.Witness != nil && b.Witness != nil {
				if d := math.Abs(r.Value - b.Value); !(d <= pt.MaxValueDelta) { // NaN-aware max
					pt.MaxValueDelta = d
				}
			}
			if !math.IsInf(r.UpperBound, 0) && !math.IsInf(b.UpperBound, 0) {
				if d := math.Abs(r.UpperBound - b.UpperBound); !(d <= pt.MaxBoundDelta) {
					pt.MaxBoundDelta = d
				}
			}
		}
		f.Points = append(f.Points, pt)
	}
	return &Finding{QuantSweep: f}, nil
}

// DataValidationFinding is the specification-validity row of the
// portfolio: the rule-check report plus per-feature statistics.
type DataValidationFinding struct {
	// Report is the violation report of the rule run.
	Report *DataReport
	// Stats summarizes each input feature over the dataset.
	Stats []FeatureStats
}

// DataValidation checks a dataset against declarative validity rules
// (paper Sec. II (C): training data as a specification artifact). It runs
// against the same compiled network as every other analysis so a single
// Analyze call produces the whole dossier, but the network itself is not
// consulted: dataset shape requirements are themselves rules
// (DimensionRule), so a mismatched sample is a reported violation, not a
// request error.
type DataValidation struct {
	// Data is the dataset under validation.
	Data []Sample
	// Rules are the validity conditions; see FiniteRule, RangeRule,
	// DimensionRule, NewDataRule.
	Rules []DataRule
}

// Kind returns KindDataValidation.
func (d *DataValidation) Kind() string { return KindDataValidation }

// Validate checks the analysis has data and rules.
func (d *DataValidation) Validate(*Network, *Region) error {
	if len(d.Data) == 0 {
		return fmt.Errorf("data validation needs at least one sample")
	}
	if len(d.Rules) == 0 {
		return fmt.Errorf("data validation needs at least one rule")
	}
	return nil
}

// Run checks every sample against every rule.
func (d *DataValidation) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	return &Finding{DataValidation: &DataValidationFinding{
		Report: dataval.Validate(d.Data, d.Rules),
		Stats:  dataval.Stats(d.Data),
	}}, nil
}

// Falsification runs the gradient-guided attack pre-pass as an analysis:
// PGD with restarts maximizing each output over the compiled region. A
// found violation is a definitive counterexample; finding nothing proves
// nothing (pair it with a Verification analysis for proof).
type Falsification struct {
	// Outputs are the output indices to attack.
	Outputs []int
	// Restarts per output; 0 means 8.
	Restarts int
	// Steps of PGD per restart; 0 means 60.
	Steps int
	// Seed drives the random restarts.
	Seed int64
}

// Kind returns KindFalsify.
func (fa *Falsification) Kind() string { return KindFalsify }

// Validate checks the attacked outputs exist.
func (fa *Falsification) Validate(net *Network, _ *Region) error {
	if len(fa.Outputs) == 0 {
		return fmt.Errorf("falsification needs at least one output index")
	}
	if err := checkOutputs(net, fa.Outputs...); err != nil {
		return fmt.Errorf("falsification %w", err)
	}
	if fa.Restarts < 0 || fa.Steps < 0 {
		return fmt.Errorf("falsification restarts/steps must be non-negative")
	}
	return nil
}

// Run attacks the compiled region.
func (fa *Falsification) Run(ctx context.Context, cn *CompiledNetwork) (*Finding, error) {
	res, err := FalsifyCtx(ctx, cn.Net(), cn.Region(), fa.Outputs, FalsifyOptions{
		Restarts: fa.Restarts,
		Steps:    fa.Steps,
		Seed:     fa.Seed,
	})
	if err != nil {
		return nil, err
	}
	if res.Best == nil {
		// Cut before its first evaluation the attack has no value at all
		// (Value is still -Inf, which JSON cannot carry): unlike a partial
		// attack that is not an anytime finding, it is the interruption.
		return nil, ctx.Err()
	}
	return &Finding{Falsification: res}, nil
}

// validateInputDims checks every data row matches the network input width.
func validateInputDims(net *Network, data [][]float64) error {
	dim := net.InputDim()
	for i, x := range data {
		if len(x) != dim {
			return fmt.Errorf("data row %d has dimension %d, network input %d", i, len(x), dim)
		}
	}
	return nil
}

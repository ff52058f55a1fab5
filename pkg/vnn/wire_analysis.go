// Wire forms of the dependability portfolio: AnalysisSpec decodes a
// requested analysis (the analysis-side sibling of PropertySpec) and
// FindingJSON encodes its result inside the shared Report document. The
// vnnd service's /v1/analyze endpoint and any JSON-emitting CLI speak
// exactly these shapes.

package vnn

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// maxWireViolations caps the per-request violation detail list in
// DataValidationJSON; the full counts are always present in PerRule.
const maxWireViolations = 32

// DataRuleSpec is the wire form of one data-validation rule:
//
//	{"kind":"finite"}
//	{"kind":"range", "lo":0, "hi":1}
//	{"kind":"dimensions", "x_dim":84, "y_dim":2}
//
// Custom closure rules (NewDataRule) are a library feature and have no
// wire form.
type DataRuleSpec struct {
	Kind string   `json:"kind"`
	Lo   *float64 `json:"lo,omitempty"`
	Hi   *float64 `json:"hi,omitempty"`
	XDim int      `json:"x_dim,omitempty"`
	YDim int      `json:"y_dim,omitempty"`
}

// Rule builds the rule the spec describes.
func (s *DataRuleSpec) Rule() (DataRule, error) {
	switch s.Kind {
	case "finite":
		return FiniteRule(), nil
	case "range":
		if s.Lo == nil || s.Hi == nil {
			return nil, fmt.Errorf("vnn: rule %q needs lo and hi", s.Kind)
		}
		return RangeRule(*s.Lo, *s.Hi), nil
	case "dimensions":
		if s.XDim <= 0 {
			return nil, fmt.Errorf("vnn: rule %q needs a positive x_dim", s.Kind)
		}
		return DimensionRule(s.XDim, s.YDim), nil
	case "":
		return nil, fmt.Errorf("vnn: data rule spec has no kind")
	default:
		return nil, fmt.Errorf("vnn: unknown data rule kind %q", s.Kind)
	}
}

// AnalysisSpec is the wire form of one Analysis. Kind selects the
// concrete analysis; the other fields are its parameters:
//
//	{"kind":"verify", "properties":[...]}
//	{"kind":"coverage", "max_tests":2000, "seed":1, "data":[[...], ...]}
//	{"kind":"traceability", "data":[[...], ...], "top_k":3}
//	{"kind":"quant_sweep", "bits":[8,6,4], "properties":[...]}
//	{"kind":"data_validation", "data":[[...]], "labels":[[...]],
//	 "rules":[{"kind":"finite"}, {"kind":"range","lo":0,"hi":1}]}
//	{"kind":"falsify", "outputs":[1], "restarts":16, "steps":80}
type AnalysisSpec struct {
	Kind string `json:"kind"`
	// Properties feeds verify and quant_sweep analyses.
	Properties []PropertySpec `json:"properties,omitempty"`
	// Data is the input set for coverage, traceability and
	// data_validation analyses.
	Data [][]float64 `json:"data,omitempty"`
	// Labels pairs with Data for data_validation (parallel arrays).
	Labels [][]float64 `json:"labels,omitempty"`
	// MaxTests, TargetSign and Seed tune coverage generation.
	MaxTests   int     `json:"max_tests,omitempty"`
	TargetSign float64 `json:"target_sign,omitempty"`
	Seed       int64   `json:"seed,omitempty"`
	// FeatureNames and TopK tune traceability.
	FeatureNames []string `json:"feature_names,omitempty"`
	TopK         int      `json:"top_k,omitempty"`
	// Bits lists quant_sweep widths.
	Bits []int `json:"bits,omitempty"`
	// Rules lists data_validation rules.
	Rules []DataRuleSpec `json:"rules,omitempty"`
	// Outputs, Restarts and Steps tune falsification (Seed is shared
	// with coverage).
	Outputs  []int `json:"outputs,omitempty"`
	Restarts int   `json:"restarts,omitempty"`
	Steps    int   `json:"steps,omitempty"`
	// Gamma, Layers and AuditTests tune monitor_audit analyses (which
	// build from Data and seed probe generation with Seed).
	Gamma      int   `json:"gamma,omitempty"`
	Layers     []int `json:"layers,omitempty"`
	AuditTests int   `json:"audit_tests,omitempty"`
}

// Analysis builds the analysis the spec describes. Shape errors (missing
// parameters, unknown kinds) surface here; what depends on the network
// and region is the built analysis's Validate.
func (s *AnalysisSpec) Analysis() (Analysis, error) {
	switch s.Kind {
	case KindVerify:
		props, err := s.properties()
		if err != nil {
			return nil, err
		}
		return &Verification{Properties: props}, nil
	case KindCoverage:
		if len(s.Data) == 0 && s.MaxTests <= 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs data or max_tests", s.Kind)
		}
		return &Coverage{Data: s.Data, MaxTests: s.MaxTests, TargetSign: s.TargetSign, Seed: s.Seed}, nil
	case KindTraceability:
		if len(s.Data) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs data", s.Kind)
		}
		return &Traceability{Data: s.Data, FeatureNames: s.FeatureNames, TopK: s.TopK}, nil
	case KindQuantSweep:
		if len(s.Bits) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs bits", s.Kind)
		}
		props, err := s.properties()
		if err != nil {
			return nil, err
		}
		return &QuantSweep{Bits: s.Bits, Properties: props}, nil
	case KindDataValidation:
		if len(s.Data) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs data", s.Kind)
		}
		if len(s.Labels) != 0 && len(s.Labels) != len(s.Data) {
			return nil, fmt.Errorf("vnn: analysis %q has %d labels for %d data rows", s.Kind, len(s.Labels), len(s.Data))
		}
		rules := make([]DataRule, 0, len(s.Rules))
		for i := range s.Rules {
			r, err := s.Rules[i].Rule()
			if err != nil {
				return nil, fmt.Errorf("vnn: rule %d: %w", i, err)
			}
			rules = append(rules, r)
		}
		if len(rules) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs rules", s.Kind)
		}
		samples := make([]Sample, len(s.Data))
		for i, x := range s.Data {
			samples[i] = Sample{X: x}
			if len(s.Labels) != 0 {
				samples[i].Y = s.Labels[i]
			}
		}
		return &DataValidation{Data: samples, Rules: rules}, nil
	case KindFalsify:
		if len(s.Outputs) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs outputs", s.Kind)
		}
		return &Falsification{Outputs: s.Outputs, Restarts: s.Restarts, Steps: s.Steps, Seed: s.Seed}, nil
	case KindMonitorAudit:
		if len(s.Data) == 0 {
			return nil, fmt.Errorf("vnn: analysis %q needs a build dataset", s.Kind)
		}
		return &MonitorAudit{
			Data:       s.Data,
			Gamma:      s.Gamma,
			Layers:     s.Layers,
			AuditTests: s.AuditTests,
			Seed:       s.Seed,
		}, nil
	case "":
		return nil, fmt.Errorf("vnn: analysis spec has no kind")
	default:
		return nil, fmt.Errorf("vnn: unknown analysis kind %q", s.Kind)
	}
}

// properties decodes the spec's property batch.
func (s *AnalysisSpec) properties() ([]Property, error) {
	if len(s.Properties) == 0 {
		return nil, fmt.Errorf("vnn: analysis %q needs properties", s.Kind)
	}
	props := make([]Property, len(s.Properties))
	for i := range s.Properties {
		p, err := s.Properties[i].Property()
		if err != nil {
			return nil, fmt.Errorf("vnn: property %d: %w", i, err)
		}
		props[i] = p
	}
	return props, nil
}

// FeatureScoreJSON is the wire form of one attribution entry.
type FeatureScoreJSON struct {
	Feature int     `json:"feature"`
	Name    string  `json:"name,omitempty"`
	Score   float64 `json:"score"`
}

// TraceNeuronJSON is the wire form of one neuron's traceability record.
type TraceNeuronJSON struct {
	Layer            int                `json:"layer"`
	Index            int                `json:"index"`
	ActivationRate   float64            `json:"activation_rate"`
	MeanActivation   float64            `json:"mean_activation"`
	TopByWeight      []FeatureScoreJSON `json:"top_by_weight,omitempty"`
	TopByCorrelation []FeatureScoreJSON `json:"top_by_correlation,omitempty"`
	// Condition is "always-active", "always-inactive" or "conditional";
	// empty when no region conditions were computed.
	Condition string `json:"condition,omitempty"`
}

// TraceabilityJSON is the wire form of a traceability finding.
type TraceabilityJSON struct {
	Arch           string            `json:"arch"`
	Neurons        int               `json:"neurons"`
	DeadNeurons    int               `json:"dead_neurons"`
	AlwaysActive   int               `json:"always_active"`
	AlwaysInactive int               `json:"always_inactive"`
	Conditional    int               `json:"conditional"`
	NeuronDetails  []TraceNeuronJSON `json:"neuron_details,omitempty"`
}

// CoverageJSON is the wire form of a coverage finding.
type CoverageJSON struct {
	Tests              int     `json:"tests"`
	Generated          int     `json:"generated"`
	Patterns           int     `json:"patterns"`
	NeuronCoverage     float64 `json:"neuron_coverage"`
	SignCoverage       float64 `json:"sign_coverage"`
	UncoveredNeurons   int     `json:"uncovered_neurons"`
	Conditions         int     `json:"conditions"`
	BranchCombinations string  `json:"branch_combinations"`
	RequiredMCDCTests  int     `json:"required_mcdc_tests"`
}

// QuantPointJSON is the wire form of one bit-width rung.
type QuantPointJSON struct {
	Bits            int          `json:"bits"`
	MaxWeightError  float64      `json:"max_weight_error"`
	DistinctWeights int          `json:"distinct_weights"`
	Fingerprint     string       `json:"fingerprint"`
	CompileMS       float64      `json:"compile_ms"`
	Results         []ResultJSON `json:"results"`
	MaxValueDelta   *float64     `json:"max_value_delta,omitempty"`
	MaxBoundDelta   *float64     `json:"max_bound_delta,omitempty"`
}

// QuantSweepJSON is the wire form of a quantization-sweep finding.
type QuantSweepJSON struct {
	Base   []ResultJSON     `json:"base"`
	Points []QuantPointJSON `json:"points"`
}

// DataViolationJSON is the wire form of one rule failure.
type DataViolationJSON struct {
	SampleIndex int    `json:"sample_index"`
	Rule        string `json:"rule"`
	Reason      string `json:"reason"`
}

// DataValidationJSON is the wire form of a data-validation finding. The
// violation detail list is capped; PerRule always carries full counts.
type DataValidationJSON struct {
	Samples    int                 `json:"samples"`
	Violations int                 `json:"violations"`
	Valid      bool                `json:"valid"`
	PerRule    map[string]int      `json:"per_rule,omitempty"`
	Details    []DataViolationJSON `json:"details,omitempty"`
}

// FalsificationJSON is the wire form of a falsification finding.
type FalsificationJSON struct {
	Value       float64   `json:"value"`
	Best        []float64 `json:"best,omitempty"`
	Output      int       `json:"output"`
	Evaluations int       `json:"evaluations"`
}

// MonitorAuditJSON is the wire form of a runtime-monitoring finding.
type MonitorAuditJSON struct {
	Fingerprint         string  `json:"fingerprint"`
	Gamma               int     `json:"gamma"`
	Layers              []int   `json:"layers"`
	BuildInputs         int     `json:"build_inputs"`
	RejectedUnreachable int     `json:"rejected_unreachable"`
	Patterns            int     `json:"patterns"`
	Audited             int     `json:"audited"`
	Flagged             int     `json:"flagged"`
	FlaggedFraction     float64 `json:"flagged_fraction"`
}

// FindingJSON is the wire form of one Finding: the kind plus exactly one
// populated payload.
type FindingJSON struct {
	Kind           string              `json:"kind"`
	ElapsedMS      float64             `json:"elapsed_ms"`
	Results        []ResultJSON        `json:"results,omitempty"`
	Coverage       *CoverageJSON       `json:"coverage,omitempty"`
	Traceability   *TraceabilityJSON   `json:"traceability,omitempty"`
	QuantSweep     *QuantSweepJSON     `json:"quant_sweep,omitempty"`
	DataValidation *DataValidationJSON `json:"data_validation,omitempty"`
	Falsification  *FalsificationJSON  `json:"falsification,omitempty"`
	Monitor        *MonitorAuditJSON   `json:"monitor,omitempty"`
}

// JSON renders the finding in the shared wire schema.
func (f *Finding) JSON() FindingJSON {
	out := FindingJSON{
		Kind:      f.Kind,
		ElapsedMS: float64(f.Elapsed.Microseconds()) / 1e3,
	}
	if f.Verification != nil {
		out.Results = resultsJSON(f.Verification)
	}
	if f.Coverage != nil {
		c := f.Coverage
		out.Coverage = &CoverageJSON{
			Tests:              c.Suite.Tests(),
			Generated:          len(c.Generated),
			Patterns:           c.Suite.Patterns(),
			NeuronCoverage:     c.Suite.NeuronCoverage(),
			SignCoverage:       c.Suite.SignCoverage(),
			UncoveredNeurons:   len(c.Suite.UncoveredNeurons()),
			Conditions:         c.Conditions,
			BranchCombinations: c.BranchCombinations,
			RequiredMCDCTests:  c.RequiredMCDCTests,
		}
	}
	if f.Traceability != nil {
		out.Traceability = traceabilityJSON(f.Traceability)
	}
	if f.QuantSweep != nil {
		q := f.QuantSweep
		qj := &QuantSweepJSON{Base: resultsJSON(q.Base)}
		for i := range q.Points {
			p := &q.Points[i]
			qj.Points = append(qj.Points, QuantPointJSON{
				Bits:            p.Bits,
				MaxWeightError:  p.Info.MaxWeightError,
				DistinctWeights: p.Info.DistinctWeights,
				Fingerprint:     p.Fingerprint,
				CompileMS:       float64(p.CompileTime.Microseconds()) / 1e3,
				Results:         resultsJSON(p.Results),
				MaxValueDelta:   finiteNonNaNPtr(p.MaxValueDelta),
				MaxBoundDelta:   finiteNonNaNPtr(p.MaxBoundDelta),
			})
		}
		out.QuantSweep = qj
	}
	if f.DataValidation != nil {
		rep := f.DataValidation.Report
		dj := &DataValidationJSON{
			Samples:    rep.Samples,
			Violations: len(rep.Violations),
			Valid:      rep.Valid(),
			PerRule:    rep.PerRule,
		}
		for i, v := range rep.Violations {
			if i >= maxWireViolations {
				break
			}
			dj.Details = append(dj.Details, DataViolationJSON{
				SampleIndex: v.SampleIndex, Rule: v.Rule, Reason: v.Reason,
			})
		}
		out.DataValidation = dj
	}
	if f.Falsification != nil {
		fr := f.Falsification
		out.Falsification = &FalsificationJSON{
			Value: fr.Value, Best: fr.Best, Output: fr.Output, Evaluations: fr.Evaluations,
		}
	}
	if f.Monitor != nil {
		mf := f.Monitor
		out.Monitor = &MonitorAuditJSON{
			Fingerprint:         mf.Fingerprint,
			Gamma:               mf.Gamma,
			Layers:              mf.Layers,
			BuildInputs:         mf.BuildInputs,
			RejectedUnreachable: mf.RejectedUnreachable,
			Patterns:            mf.Patterns,
			Audited:             mf.Audited,
			Flagged:             mf.Flagged,
			FlaggedFraction:     mf.FlaggedFraction,
		}
	}
	return out
}

// traceabilityJSON flattens a traceability report onto the wire.
func traceabilityJSON(rep *TraceabilityReport) *TraceabilityJSON {
	tj := &TraceabilityJSON{
		Arch:        rep.Arch,
		Neurons:     len(rep.Neurons),
		DeadNeurons: len(rep.DeadNeurons()),
	}
	for _, row := range rep.Conditions {
		for _, c := range row {
			switch c {
			case trace.AlwaysActive:
				tj.AlwaysActive++
			case trace.AlwaysInactive:
				tj.AlwaysInactive++
			default:
				tj.Conditional++
			}
		}
	}
	for i := range rep.Neurons {
		n := &rep.Neurons[i]
		nj := TraceNeuronJSON{
			Layer:            n.Layer,
			Index:            n.Index,
			ActivationRate:   n.ActivationRate,
			MeanActivation:   n.MeanActivation,
			TopByWeight:      scoresJSON(n.TopByWeight),
			TopByCorrelation: scoresJSON(n.TopByCorrelation),
		}
		if rep.Conditions != nil {
			nj.Condition = rep.Conditions[n.Layer][n.Index].String()
		}
		tj.NeuronDetails = append(tj.NeuronDetails, nj)
	}
	return tj
}

func scoresJSON(scores []trace.FeatureScore) []FeatureScoreJSON {
	out := make([]FeatureScoreJSON, 0, len(scores))
	for _, s := range scores {
		out = append(out, FeatureScoreJSON{Feature: s.Feature, Name: s.Name, Score: s.Score})
	}
	return out
}

func resultsJSON(results []*Result) []ResultJSON {
	out := make([]ResultJSON, 0, len(results))
	for _, r := range results {
		out = append(out, r.JSON())
	}
	return out
}

// finiteNonNaNPtr boxes v unless it has no JSON representation.
func finiteNonNaNPtr(v float64) *float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return nil
	}
	return &v
}

// NewAnalysisReport assembles the shared report document from an Analyze
// batch: every finding under Analyses, with verification results also
// flattened into Results (so consumers of plain verify reports parse
// analysis reports unchanged) and Worst aggregating the formal verdicts
// of the float model (verification findings plus quant-sweep baselines —
// quantized-model verdicts describe a different artifact and are reported
// per point instead). A batch containing no formal verdict at all — only
// coverage, traceability, data validation or falsification — reports
// Worst as "inconclusive": nothing was proved, and a consumer gating on
// "proved" must not mistake an unverified network for a verified one.
func NewAnalysisReport(net *Network, findings []*Finding) Report {
	rep := Report{}
	if net != nil {
		rep.Network = net.Name
		rep.Arch = net.ArchString()
	}
	var formal []*Result
	for _, f := range findings {
		rep.Analyses = append(rep.Analyses, f.JSON())
		formal = append(formal, f.Verification...)
		if f.QuantSweep != nil {
			formal = append(formal, f.QuantSweep.Base...)
		}
	}
	if len(formal) == 0 {
		rep.Worst = Inconclusive.String()
	} else {
		rep.Worst = Worst(formal).String()
	}
	for _, f := range findings {
		for _, r := range f.Verification {
			rep.Results = append(rep.Results, r.JSON())
		}
	}
	return rep
}

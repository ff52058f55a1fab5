// Wire forms of the verified-rollout plane: GateSpec configures the
// admission gate a model version must pass before taking traffic, and
// ModelVersionJSON/TransitionJSON document a registered version and its
// lifecycle. The gate is deliberately thin glue over the existing
// portfolio — its analyses are plain AnalysisSpec values run through
// Analyze, and Evaluate turns their typed findings into a pass/fail
// decision against declared thresholds. The vnnd registry (pkg/vnnregistry)
// persists and serves exactly these shapes.

package vnn

import (
	"fmt"
	"math"
)

// GateSpec is the wire form of an admission gate: the portfolio batch a
// submitted model version must run, plus the thresholds its findings must
// clear. A version whose gate passes becomes admitted (eligible for
// canary/promotion); a version whose gate fails is rejected and never
// routes traffic.
//
//	{"analyses":[{"kind":"verify","properties":[...]},
//	             {"kind":"monitor_audit","data":[[...]],"gamma":2}],
//	 "max_flag_rate":0.05, "max_bound_drift":0.1}
type GateSpec struct {
	// Analyses is the portfolio batch the gate runs (via vnn.Analyze) on
	// the submitted version's compilation.
	Analyses []AnalysisSpec `json:"analyses"`
	// RequireProved, when unset or true, rejects verification findings
	// (and quant-sweep baselines) that are merely inconclusive; violated
	// properties always reject regardless.
	RequireProved *bool `json:"require_proved,omitempty"`
	// MaxFlagRate bounds a monitor_audit finding's flagged fraction
	// (ε in the paper's abstention argument); unset leaves audits
	// informational.
	MaxFlagRate *float64 `json:"max_flag_rate,omitempty"`
	// MaxBoundDrift and MaxValueDrift bound each quant_sweep point's
	// proven-bound / witnessed-value delta against the float baseline;
	// unset leaves drift informational. Points with no comparable pair
	// (NaN delta) are not rejected by these thresholds.
	MaxBoundDrift *float64 `json:"max_bound_drift,omitempty"`
	MaxValueDrift *float64 `json:"max_value_drift,omitempty"`
	// MinNeuronCoverage is the lower bound a coverage finding's neuron
	// coverage must reach; unset leaves coverage informational.
	MinNeuronCoverage *float64 `json:"min_neuron_coverage,omitempty"`
	// TimeoutMS bounds the whole gate run including compiles; 0 falls
	// back to the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// requireProved reports whether inconclusive formal verdicts reject
// (the default).
func (g *GateSpec) requireProved() bool {
	return g.RequireProved == nil || *g.RequireProved
}

// Validate checks the gate's shape: at least one analysis, each analysis
// spec well-formed, thresholds in their domains. What depends on the
// network and region is each built analysis's Validate.
func (g *GateSpec) Validate() error {
	if len(g.Analyses) == 0 {
		return fmt.Errorf("vnn: gate needs at least one analysis")
	}
	for i := range g.Analyses {
		if _, err := g.Analyses[i].Analysis(); err != nil {
			return fmt.Errorf("vnn: gate analysis %d: %w", i, err)
		}
	}
	if g.MaxFlagRate != nil && (*g.MaxFlagRate < 0 || *g.MaxFlagRate > 1 || math.IsNaN(*g.MaxFlagRate)) {
		return fmt.Errorf("vnn: gate max_flag_rate %v outside [0, 1]", *g.MaxFlagRate)
	}
	if g.MinNeuronCoverage != nil && (*g.MinNeuronCoverage < 0 || *g.MinNeuronCoverage > 1 || math.IsNaN(*g.MinNeuronCoverage)) {
		return fmt.Errorf("vnn: gate min_neuron_coverage %v outside [0, 1]", *g.MinNeuronCoverage)
	}
	if g.MaxBoundDrift != nil && (*g.MaxBoundDrift < 0 || math.IsNaN(*g.MaxBoundDrift)) {
		return fmt.Errorf("vnn: gate max_bound_drift %v is negative", *g.MaxBoundDrift)
	}
	if g.MaxValueDrift != nil && (*g.MaxValueDrift < 0 || math.IsNaN(*g.MaxValueDrift)) {
		return fmt.Errorf("vnn: gate max_value_drift %v is negative", *g.MaxValueDrift)
	}
	if g.TimeoutMS < 0 {
		return fmt.Errorf("vnn: gate timeout_ms %d is negative", g.TimeoutMS)
	}
	return nil
}

// GateCheckJSON is one analysis's verdict within a gate decision.
type GateCheckJSON struct {
	// Analysis is the index of the analysis in GateSpec.Analyses.
	Analysis int `json:"analysis"`
	// Kind echoes the analysis kind.
	Kind string `json:"kind"`
	// Pass reports whether this analysis cleared its thresholds.
	Pass bool `json:"pass"`
	// Reason explains a failure (empty on pass, except informational
	// notes).
	Reason string `json:"reason,omitempty"`
}

// GateDecisionJSON is the wire form of a completed gate evaluation: the
// overall verdict plus one check per analysis.
type GateDecisionJSON struct {
	Pass   bool            `json:"pass"`
	Checks []GateCheckJSON `json:"checks"`
}

// FailReason returns the first failing check's reason, or "" when the
// decision passed.
func (d *GateDecisionJSON) FailReason() string {
	for _, c := range d.Checks {
		if !c.Pass {
			return fmt.Sprintf("analysis %d (%s): %s", c.Analysis, c.Kind, c.Reason)
		}
	}
	return ""
}

// Evaluate scores a gate run's findings (one per gate analysis, in order)
// against the gate's thresholds. It is pure decision logic: the analyses
// have already run; Evaluate only reads their typed findings.
//
// Per-kind rules:
//   - verify: any Violated property rejects; Inconclusive rejects unless
//     require_proved is false.
//   - quant_sweep: the float baseline is held to the verify rule; each
//     measured point rejects on a Violated verdict or on bound/value
//     drift above max_bound_drift / max_value_drift (NaN deltas —
//     no comparable pair — are not rejected).
//   - monitor_audit: the flagged fraction must be ≤ max_flag_rate when
//     set; otherwise informational.
//   - coverage: neuron coverage must be ≥ min_neuron_coverage when set.
//   - data_validation: the rule report must be valid.
//   - traceability, falsify: informational (a falsification witness shows
//     up as a Violated verdict in the paired verify analysis).
func (g *GateSpec) Evaluate(findings []*Finding) GateDecisionJSON {
	d := GateDecisionJSON{Pass: true, Checks: make([]GateCheckJSON, 0, len(findings))}
	for i, f := range findings {
		c := GateCheckJSON{Analysis: i, Kind: f.Kind, Pass: true}
		switch {
		case f.Verification != nil:
			c.Pass, c.Reason = g.checkFormal(f.Verification)
		case f.QuantSweep != nil:
			c.Pass, c.Reason = g.checkQuantSweep(f.QuantSweep)
		case f.Monitor != nil:
			if g.MaxFlagRate != nil && f.Monitor.FlaggedFraction > *g.MaxFlagRate {
				c.Pass = false
				c.Reason = fmt.Sprintf("flagged fraction %.4f exceeds max_flag_rate %.4f",
					f.Monitor.FlaggedFraction, *g.MaxFlagRate)
			}
		case f.Coverage != nil:
			if g.MinNeuronCoverage != nil {
				if nc := f.Coverage.Suite.NeuronCoverage(); nc < *g.MinNeuronCoverage {
					c.Pass = false
					c.Reason = fmt.Sprintf("neuron coverage %.4f below min_neuron_coverage %.4f",
						nc, *g.MinNeuronCoverage)
				}
			}
		case f.DataValidation != nil:
			if rep := f.DataValidation.Report; !rep.Valid() {
				c.Pass = false
				c.Reason = fmt.Sprintf("%d of %d samples violate validity rules",
					len(rep.Violations), rep.Samples)
			}
		}
		if !c.Pass {
			d.Pass = false
		}
		d.Checks = append(d.Checks, c)
	}
	return d
}

// checkFormal applies the gate's formal-verdict rule to a result batch.
func (g *GateSpec) checkFormal(results []*Result) (bool, string) {
	for i, r := range results {
		switch r.Outcome {
		case Violated:
			return false, fmt.Sprintf("property %d (%s) violated", i, r.Property)
		case Inconclusive:
			if g.requireProved() {
				return false, fmt.Sprintf("property %d (%s) inconclusive and gate requires proved", i, r.Property)
			}
		}
	}
	return true, ""
}

// checkQuantSweep applies the formal rule to the baseline and the drift
// thresholds to every measured point.
func (g *GateSpec) checkQuantSweep(f *QuantSweepFinding) (bool, string) {
	if ok, reason := g.checkFormal(f.Base); !ok {
		return false, "baseline: " + reason
	}
	for _, pt := range f.Points {
		if Worst(pt.Results) == Violated {
			return false, fmt.Sprintf("%d-bit model violates a gated property", pt.Bits)
		}
		if g.MaxBoundDrift != nil && !math.IsNaN(pt.MaxBoundDelta) && pt.MaxBoundDelta > *g.MaxBoundDrift {
			return false, fmt.Sprintf("%d-bit bound drift %.6g exceeds max_bound_drift %.6g",
				pt.Bits, pt.MaxBoundDelta, *g.MaxBoundDrift)
		}
		if g.MaxValueDrift != nil && !math.IsNaN(pt.MaxValueDelta) && pt.MaxValueDelta > *g.MaxValueDrift {
			return false, fmt.Sprintf("%d-bit value drift %.6g exceeds max_value_drift %.6g",
				pt.Bits, pt.MaxValueDelta, *g.MaxValueDrift)
		}
	}
	return true, ""
}

// TransitionJSON is one recorded lifecycle transition of a model version —
// the unit of the version's history in the registry snapshot.
type TransitionJSON struct {
	From     string `json:"from"`
	To       string `json:"to"`
	Reason   string `json:"reason,omitempty"`
	AtUnixMS int64  `json:"at_unix_ms"`
}

// ModelVersionJSON is the wire document for one registered model version:
// identity, lifecycle state, gate outcome, and serving counters. The
// registry's HTTP surface (GET /v1/models, submit/promote/rollback
// responses) and the /metrics registry block both speak this shape.
type ModelVersionJSON struct {
	Model   string `json:"model"`
	Version int    `json:"version"`
	// State is one of pending, rejected, admitted, canary, live, retired.
	State string `json:"state"`
	// Fingerprint is the version's compile-workload fingerprint (the
	// cache key its warm artifact lives under).
	Fingerprint string `json:"fingerprint"`
	// MonitorFingerprint identifies the serving monitor workload, when
	// the version was submitted with one.
	MonitorFingerprint string `json:"monitor_fingerprint,omitempty"`
	// CanaryPercent is the configured traffic share while State is
	// canary.
	CanaryPercent int `json:"canary_percent,omitempty"`
	// Gate is the evaluated admission decision (nil while pending or
	// when the gate errored before evaluating).
	Gate *GateDecisionJSON `json:"gate,omitempty"`
	// GateError records an execution failure of the gate run itself.
	GateError string `json:"gate_error,omitempty"`
	// SubmittedUnixMS timestamps the submission.
	SubmittedUnixMS int64 `json:"submitted_unix_ms,omitempty"`
	// Transitions is the version's lifecycle history, oldest first.
	Transitions []TransitionJSON `json:"transitions,omitempty"`
	// Requests/Inputs/Flagged count traffic served by this version via
	// /v1/infer?model=, and how many inputs its monitor flagged.
	Requests int64 `json:"requests"`
	Inputs   int64 `json:"inputs"`
	Flagged  int64 `json:"flagged"`
}

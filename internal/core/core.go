// Package core assembles the paper's case study: an ANN-based highway
// motion predictor (84 inputs → Gaussian-mixture action distribution) and
// the certification pipeline of Table I — data validation, training,
// neuron-to-feature traceability, coverage analysis, runtime monitoring
// and formal verification of the safety property "if a vehicle exists on
// the left of the ego vehicle, the predictor never suggests a large left
// lateral velocity".
//
// The predictor itself — construction, decoding, safety queries, hints
// fine-tuning, safety rules — is public API now (pkg/vnn, where the
// examples use it without internal imports); this package keeps thin
// aliases for its internal callers and owns the end-to-end certification
// pipeline (RunPipeline).
package core

import "repro/pkg/vnn"

// Predictor wraps a trained network with its mixture-head decoding; it is
// the public vnn.Predictor.
type Predictor = vnn.Predictor

// NewPredictorNet constructs an untrained predictor network in the paper's
// I<depth>×<width> family (see vnn.NewPredictor).
func NewPredictorNet(depth, width, k int, seed int64) *Predictor {
	return vnn.NewPredictor(depth, width, k, seed)
}

// SafetyRules returns the data-validation rules of the case study (see
// vnn.SafetyRules).
func SafetyRules(latTol float64) []vnn.DataRule { return vnn.SafetyRules(latTol) }

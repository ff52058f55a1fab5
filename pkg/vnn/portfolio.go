// Public re-exports that complete the dependability portfolio: network
// construction, structural-coverage constants, quantization, and the data
// validation rule machinery. With these, every pillar of the paper's
// certification argument is reachable from pkg/vnn alone — examples and
// external callers never import internal packages.
package vnn

import (
	"math/big"
	"math/rand"

	"repro/internal/coverage"
	"repro/internal/dataval"
	"repro/internal/nn"
	"repro/internal/quant"
	"repro/internal/trace"
	"repro/internal/train"
)

// Re-exported portfolio types. Aliases, not wrappers: values flow between
// the public API and the engine without conversion.
type (
	// NetworkConfig describes a network to construct with NewNetwork.
	NetworkConfig = nn.Config
	// Layer is one dense layer of a Network (for hand-built networks).
	Layer = nn.Layer
	// Activation selects a layer's nonlinearity.
	Activation = nn.Activation
	// CoverageSuite accumulates structural coverage over test inputs.
	CoverageSuite = coverage.Suite
	// CoverageGenOptions tune coverage-guided generation.
	CoverageGenOptions = coverage.GenerateOptions
	// TraceabilityReport is the neuron-to-feature traceability analysis.
	TraceabilityReport = trace.Report
	// TraceNeuron is the traceability record of one hidden neuron.
	TraceNeuron = trace.NeuronInfo
	// QuantInfo reports what quantization did to a network.
	QuantInfo = quant.Info
	// Sample is one supervised example (input X, label Y).
	Sample = train.Sample
	// DataRule is one validity condition over a single sample.
	DataRule = dataval.Rule
	// DataReport is the outcome of validating a dataset.
	DataReport = dataval.Report
	// DataViolation records one rule failure.
	DataViolation = dataval.Violation
	// FeatureStats summarizes one input feature across a dataset.
	FeatureStats = dataval.FeatureStats
)

// Activations, for constructing networks through the public API.
const (
	// Identity applies no nonlinearity (linear output layers).
	Identity = nn.Identity
	// ReLU is max(0, z) — the activation the MILP verifier encodes exactly.
	ReLU = nn.ReLU
	// Tanh is the smooth saturating activation of the paper's MC/DC
	// argument (no branches, so one test satisfies condition coverage).
	Tanh = nn.Tanh
)

// NewNetwork builds a freshly initialized network. A nil rng panics;
// callers own their randomness for reproducibility.
func NewNetwork(cfg NetworkConfig, rng *rand.Rand) *Network { return nn.New(cfg, rng) }

// ReLUConditions counts the branching conditions of a network: one per
// hidden ReLU neuron (the "if-then-else per neuron" of the paper's MC/DC
// argument).
func ReLUConditions(net *Network) int { return coverage.ReLUConditions(net) }

// BranchCombinations returns 2^conditions — the number of activation
// patterns exhaustive branch testing would have to cover.
func BranchCombinations(net *Network) *big.Int { return coverage.BranchCombinations(net) }

// RequiredMCDCTests returns the MC/DC lower bound on test-suite size: 1
// for branch-free (e.g. tanh) networks, conditions+1 with ReLU branches.
func RequiredMCDCTests(net *Network) int { return coverage.RequiredTests(net) }

// GenerateCoverage grows a coverage-guided test suite over a box by
// rejection sampling from the explicit source — the standalone form of the
// Coverage analysis, usable on networks that cannot be compiled (e.g.
// tanh). It returns the suite and the kept (coverage-improving) inputs.
func GenerateCoverage(net *Network, box []Interval, src rand.Source, opts CoverageGenOptions) (*CoverageSuite, [][]float64) {
	lo := make([]float64, len(box))
	hi := make([]float64, len(box))
	for i, iv := range box {
		lo[i], hi[i] = iv.Lo, iv.Hi
	}
	return coverage.Generate(net, lo, hi, src, opts)
}

// Quantize returns a copy of net with weights and biases snapped to a
// symmetric signed b-bit grid per layer (bits in [2, 16]), plus
// quantization statistics. The quantized model is an ordinary Network
// with exactly representable weights, so Compile/Verify apply unchanged.
func Quantize(net *Network, bits int) (*Network, *QuantInfo, error) {
	return quant.Quantize(net, bits)
}

// OutputDeviation empirically measures the largest output difference
// between two networks over the probe inputs — the quick check that a
// quantized model still behaves like its float original.
func OutputDeviation(a, b *Network, probes [][]float64) float64 {
	return quant.OutputDeviation(a, b, probes)
}

// NewDataRule builds a validity rule from a closure; check returns "" for
// valid samples and a short reason otherwise.
func NewDataRule(name, desc string, check func(Sample) string) DataRule {
	return dataval.NewRule(name, desc, check)
}

// FiniteRule rejects samples containing NaN or infinite values.
func FiniteRule() DataRule { return dataval.FiniteRule() }

// RangeRule enforces that all inputs stay inside [lo, hi].
func RangeRule(lo, hi float64) DataRule { return dataval.RangeRule(lo, hi) }

// DimensionRule enforces fixed input/label dimensions.
func DimensionRule(xDim, yDim int) DataRule { return dataval.DimensionRule(xDim, yDim) }

// ValidateData checks every sample against every rule.
func ValidateData(data []Sample, rules []DataRule) *DataReport {
	return dataval.Validate(data, rules)
}

// SanitizeData returns the subset of data passing all rules, plus the
// removed count. Order is preserved.
func SanitizeData(data []Sample, rules []DataRule) (clean []Sample, removed int) {
	return dataval.Sanitize(data, rules)
}

// coverageSource builds the seeded random source Coverage analyses draw
// from, so CLI and service runs of the same seed generate the same suite.
func coverageSource(seed int64) rand.Source { return rand.NewSource(seed) }

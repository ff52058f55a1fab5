// The case-study predictor, public. The paper's running example — an
// ANN-based highway motion predictor with a Gaussian-mixture head — used
// to live in internal/core, which meant every example demonstrating the
// methodology had to import internal packages. The construction,
// decoding and safety-query surface now lives here; internal/core
// delegates, so the certification pipeline is unchanged.

package vnn

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/gmm"
	"repro/internal/highway"
	"repro/internal/nn"
	"repro/internal/train"
)

// Predictor wraps a trained network with its mixture-head decoding.
type Predictor struct {
	Net *Network
	K   int // mixture components
}

// DefaultComponents is the number of mixture components in the case
// study's Gaussian-mixture head.
const DefaultComponents = 3

// NewPredictor constructs an untrained predictor network in the paper's
// I<depth>×<width> family: 84 inputs, `depth` hidden ReLU layers of
// `width` neurons, and a linear gmm head with k components.
func NewPredictor(depth, width, k int, seed int64) *Predictor {
	if depth < 1 || width < 1 || k < 1 {
		panic(fmt.Sprintf("vnn: bad predictor shape depth=%d width=%d k=%d", depth, width, k))
	}
	hidden := make([]int, depth)
	for i := range hidden {
		hidden[i] = width
	}
	rng := rand.New(rand.NewSource(seed))
	outNames := make([]string, k*gmm.RawPerComponent)
	for i := 0; i < k; i++ {
		base := i * gmm.RawPerComponent
		outNames[base+gmm.RawLogit] = fmt.Sprintf("c%d.logit", i)
		outNames[base+gmm.RawMuLat] = fmt.Sprintf("c%d.mu_lat", i)
		outNames[base+gmm.RawMuLong] = fmt.Sprintf("c%d.mu_long", i)
		outNames[base+gmm.RawLogSigLat] = fmt.Sprintf("c%d.logsig_lat", i)
		outNames[base+gmm.RawLogSigLong] = fmt.Sprintf("c%d.logsig_long", i)
	}
	net := nn.New(nn.Config{
		Name:        fmt.Sprintf("predictor-I%dx%d", depth, width),
		InputDim:    highway.FeatureDim,
		Hidden:      hidden,
		OutputDim:   k * gmm.RawPerComponent,
		HiddenAct:   nn.ReLU,
		OutputAct:   nn.Identity,
		InputNames:  highway.FeatureNames(),
		OutputNames: outNames,
	}, rng)
	train.InitMDNHead(net, k, 1.0, -1, rng)
	return &Predictor{Net: net, K: k}
}

// Predict decodes the network output at x into an action distribution.
func (p *Predictor) Predict(x []float64) Mixture {
	return gmm.Decode(p.Net.Forward(x))
}

// SuggestAction returns the dominant-component action suggestion
// (lateral velocity, longitudinal acceleration).
func (p *Predictor) SuggestAction(x []float64) (latVel, longAcc float64) {
	c := p.Predict(x).Dominant()
	return c.Mean[gmm.LatVel], c.Mean[gmm.LongAcc]
}

// MuLatOutputs lists the raw-output indices of all component lateral-
// velocity means — the outputs the verifier bounds.
func (p *Predictor) MuLatOutputs() []int { return MuLatOutputs(p.K) }

// MuLongOutputs lists the raw-output indices of all component
// longitudinal-acceleration means.
func (p *Predictor) MuLongOutputs() []int { return MuLongOutputs(p.K) }

// VerifySafety bounds the maximum lateral-velocity component mean over the
// left-occupied region (the Table II "maximum lateral velocity" column).
// Bounding every component mean soundly bounds the mixture mean. The
// network is compiled for this one query; callers running several queries
// should Compile once themselves.
func (p *Predictor) VerifySafety(ctx context.Context, opts Options) (*Result, error) {
	cn, err := Compile(ctx, p.Net, LeftOccupiedRegion(), opts)
	if err != nil {
		return nil, err
	}
	return VerifyOne(ctx, cn, MaxOverOutputs(p.MuLatOutputs()...))
}

// ProveSafetyBound proves that no lateral-velocity component mean exceeds
// the threshold over the left-occupied region (Table II's last row, with
// threshold 3 m/s in the paper). It returns the aggregate verdict and the
// per-component results, all answered on one compiled encoding.
func (p *Predictor) ProveSafetyBound(ctx context.Context, threshold float64, opts Options) (Outcome, []*Result, error) {
	cn, err := Compile(ctx, p.Net, LeftOccupiedRegion(), opts)
	if err != nil {
		return 0, nil, err
	}
	props := make([]Property, 0, p.K)
	for _, out := range p.MuLatOutputs() {
		props = append(props, AtMost(out, threshold))
	}
	results, err := Verify(ctx, cn, props...)
	if err != nil {
		return 0, nil, err
	}
	return Worst(results), results, nil
}

// VerifyFrontSafety bounds the maximum longitudinal-acceleration component
// mean over the close-front region (the symmetric longitudinal property).
// A sound bound on every component mean bounds the mixture's suggested
// acceleration.
func (p *Predictor) VerifyFrontSafety(ctx context.Context, opts Options) (*Result, error) {
	cn, err := Compile(ctx, p.Net, FrontCloseRegion(), opts)
	if err != nil {
		return nil, err
	}
	return VerifyOne(ctx, cn, MaxOverOutputs(p.MuLongOutputs()...))
}

// ProveFrontSafetyBound proves the acceleration suggestion stays at or
// below threshold (m/s²) whenever a vehicle is close ahead.
func (p *Predictor) ProveFrontSafetyBound(ctx context.Context, threshold float64, opts Options) (Outcome, []*Result, error) {
	cn, err := Compile(ctx, p.Net, FrontCloseRegion(), opts)
	if err != nil {
		return 0, nil, err
	}
	props := make([]Property, 0, p.K)
	for _, out := range p.MuLongOutputs() {
		props = append(props, AtMost(out, threshold))
	}
	results, err := Verify(ctx, cn, props...)
	if err != nil {
		return 0, nil, err
	}
	return Worst(results), results, nil
}

// SafetyRules returns the data-validation rules of the case study
// (Sec. II (C)): structural sanity plus the property that no training
// sample exhibits a left move with the left slot occupied beyond latTol.
// The same values feed pre-training sanitization, DataValidation
// analyses, and requests served over the wire.
func SafetyRules(latTol float64) []DataRule {
	return []DataRule{
		DimensionRule(highway.FeatureDim, 2),
		FiniteRule(),
		RangeRule(0, 1),
		NewDataRule("no-left-move-when-left-occupied",
			"no sample commands positive lateral velocity while the left slot is occupied",
			func(s Sample) string {
				if highway.LeftOccupiedInFeatures(s.X) && s.Y[0] > latTol {
					return fmt.Sprintf("lat_vel %.3f with left occupied", s.Y[0])
				}
				return ""
			}),
	}
}

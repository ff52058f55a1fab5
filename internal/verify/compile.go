package verify

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/bounds"
	"repro/internal/nn"
)

// Phases is one compilation's own cost by phase. It rides on the
// Compiled, so a concurrent or earlier compile never shows up in
// another's account; whoever runs compiles (the server) sums them.
// Queries never re-encode or re-tighten: encode and tightenLP are called
// only from compile.go and tighten.go (a CI guard pins it).
type Phases struct {
	// Tighten is the wall time of LP bound tightening, its prefix
	// encodings included (zero when Compile's tighten is off); Encode is
	// the wall time of the final full encoding.
	Tighten, Encode time.Duration
	// TightenPasses and EncodePasses count this compilation's passes:
	// 0 or 1, and one per tightened hidden layer plus the final encoding.
	TightenPasses, EncodePasses int
}

// Compiled is a network fixed to one input region whose bound analysis
// (interval propagation plus optional LP tightening) and MILP encoding
// have been performed exactly once. Any number of queries — max-objective,
// prove-threshold, linear functionals — run against the shared encoding by
// cloning its model, so a Compiled is safe for concurrent use and repeated
// queries never repeat the preprocessing.
type Compiled struct {
	net    *nn.Network
	region *InputRegion
	nb     *bounds.NetworkBounds
	enc    *encoding

	// CompileTime is the wall-clock cost of bound analysis plus encoding.
	CompileTime time.Duration
	// Phases splits CompileTime; zero for CompileWithBounds, which an
	// import runs outside any request.
	Phases Phases
	// Tightened records whether LP bound tightening ran during compilation.
	Tightened bool
}

// Compile performs the one-time preprocessing for net over region: interval
// bound propagation, optional LP tightening (one warm chain per layer —
// see tightenLP) and the MILP encoding. The result is a function of
// (net, region, tighten) alone; no query option reaches it. The ctx
// deadline covers the whole compilation; tightening stops early (soundly)
// when the budget runs out.
func Compile(ctx context.Context, net *nn.Network, region *InputRegion, tighten bool) (*Compiled, error) {
	start := time.Now()
	if err := region.Validate(net); err != nil {
		return nil, err
	}
	nb, err := bounds.Propagate(net, region.Box)
	if err != nil {
		return nil, err
	}
	var ph Phases
	if tighten {
		t0 := time.Now()
		if nb, err = tightenLP(ctx, net, region, nb, &ph.EncodePasses); err != nil {
			return nil, err
		}
		ph.Tighten, ph.TightenPasses = time.Since(t0), 1
	}
	t0 := time.Now()
	enc, err := encode(net, region, nb, encodeOptions{prefixLayers: -1})
	if err != nil {
		return nil, err
	}
	ph.Encode = time.Since(t0)
	ph.EncodePasses++
	return &Compiled{
		net:         net,
		region:      region,
		nb:          nb,
		enc:         enc,
		CompileTime: time.Since(start),
		Phases:      ph,
		Tightened:   tighten,
	}, nil
}

// CompileWithBounds builds a Compiled from an externally supplied bound
// analysis: only the MILP encoding runs — no propagation and no LP
// tightening, which is what makes replicating a compiled artifact
// across a fleet cheap. The caller vouches for nb's soundness over
// region (pkg/vnn's import path verifies the bounds are contained in a
// fresh plain propagation before calling this); tightened records how
// nb was originally produced.
func CompileWithBounds(net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, tightened bool) (*Compiled, error) {
	start := time.Now()
	if err := region.Validate(net); err != nil {
		return nil, err
	}
	if len(nb.Layers) != len(net.Layers) || len(nb.Input) != net.InputDim() {
		return nil, fmt.Errorf("verify: bounds shape %d layers / %d inputs, network %d / %d",
			len(nb.Layers), len(nb.Input), len(net.Layers), net.InputDim())
	}
	enc, err := encode(net, region, nb, encodeOptions{prefixLayers: -1})
	if err != nil {
		return nil, err
	}
	return &Compiled{
		net:         net,
		region:      region,
		nb:          nb,
		enc:         enc,
		CompileTime: time.Since(start),
		Tightened:   tightened,
	}, nil
}

// Net returns the compiled network.
func (c *Compiled) Net() *nn.Network { return c.net }

// Bounds returns the compiled bound analysis. The value is shared
// compiled state: callers must treat it as read-only.
func (c *Compiled) Bounds() *bounds.NetworkBounds { return c.nb }

// Region returns the input region the compilation quantifies over.
func (c *Compiled) Region() *InputRegion { return c.region }

// OutputBounds returns the proven interval bounds on every output over the
// region — the zero-cost anytime answer available before any MILP runs.
func (c *Compiled) OutputBounds() []bounds.Interval { return c.nb.Output() }

// PreActivationBounds returns the proven pre-activation intervals of every
// hidden layer (one row per hidden layer), as computed — and, when
// compiled with tighten, LP-tightened — during compilation. The rows are
// views into the compiled state and must be treated as read-only.
// Analyses that need activation-phase information over the region (e.g.
// traceability interval conditions) consume these instead of re-running
// propagation.
func (c *Compiled) PreActivationBounds() [][]bounds.Interval {
	out := make([][]bounds.Interval, 0, len(c.nb.Layers)-1)
	for li := 0; li+1 < len(c.nb.Layers); li++ {
		out = append(out, c.nb.Layers[li].Pre)
	}
	return out
}

// checkOutputs validates output indices against the network.
func checkOutputs(net *nn.Network, outs ...int) error {
	for _, oi := range outs {
		if oi < 0 || oi >= net.OutputDim() {
			return fmt.Errorf("verify: output index %d of %d", oi, net.OutputDim())
		}
	}
	return nil
}

// MaxLinear computes the maximum of the linear functional
// Σ coeffs[k]·output[k] over the region. The empty functional is rejected.
func (c *Compiled) MaxLinear(ctx context.Context, coeffs map[int]float64, opts Options) (*MaxResult, error) {
	return c.search(ctx, coeffs, nil, opts)
}

// outputOrder returns the functional's output indices ascending. Floating-
// point sums over a functional's terms run in this order, so a value that
// is both reported and compared with a threshold is the same on every run
// (Go randomises map iteration; float addition is not associative).
func outputOrder(coeffs map[int]float64) []int {
	order := make([]int, 0, len(coeffs))
	for oi := range coeffs {
		order = append(order, oi)
	}
	sort.Ints(order)
	return order
}

// intervalBound is the proven interval upper bound on Σ coeffs·output over
// the encoding's bound analysis — the zero-cost anytime fallback.
func (e *encoding) intervalBound(coeffs map[int]float64) float64 {
	outB := e.nb.Output()
	var hi float64
	for _, oi := range outputOrder(coeffs) {
		cf := coeffs[oi]
		if cf >= 0 {
			hi += cf * outB[oi].Hi
		} else {
			hi += cf * outB[oi].Lo
		}
	}
	return hi
}

// MaxOverOutputs returns the maximum over several output neurons: a
// disjunction, answered by one search per output on the shared encoding.
// The K searches run one after another, each on opts.Workers workers, so
// the ctx deadline, if any, bounds the whole call and a later search gets
// what the earlier ones left of it. Stats sums the searches' effort.
func (c *Compiled) MaxOverOutputs(ctx context.Context, outIndices []int, opts Options) (*MaxResult, error) {
	if len(outIndices) == 0 {
		return nil, fmt.Errorf("verify: MaxOverOutputs needs at least one output index")
	}
	if err := checkOutputs(c.net, outIndices...); err != nil {
		return nil, err
	}
	best := &MaxResult{Value: math.Inf(-1), UpperBound: math.Inf(-1)}
	for _, oi := range outIndices {
		r, err := c.search(ctx, map[int]float64{oi: 1}, nil, opts)
		if err != nil {
			return nil, err
		}
		best.Stats.add(r.Stats)
		if r.Value > best.Value {
			best.Value = r.Value
			best.Witness = r.Witness
		}
		best.UpperBound = math.Max(best.UpperBound, r.UpperBound)
		best.Outcome = max(best.Outcome, r.Outcome) // outcomes run best to worst
	}
	return best, nil
}

// ProveLinearUpperBound proves Σ coeffs[k]·output[k] ≤ threshold over the
// region, or returns a counterexample. This is the general linear output
// inequality the property algebra in pkg/vnn compiles to, and it is a
// maximum like any other: the search runs on the region ∩ {functional ≥
// threshold}, where infeasibility proves the bound and a witness whose
// forward pass exceeds the threshold violates it. The answer always
// carries the tightest proven UpperBound when the query ended, so an
// interrupted proof is still a usable anytime answer.
func (c *Compiled) ProveLinearUpperBound(ctx context.Context, coeffs map[int]float64, threshold float64, opts Options) (*MaxResult, error) {
	if math.IsNaN(threshold) {
		return nil, fmt.Errorf("verify: threshold is NaN")
	}
	return c.search(ctx, coeffs, &threshold, opts)
}

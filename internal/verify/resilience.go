package verify

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bounds"
	"repro/internal/nn"
)

// ResilienceResult reports the outcome of a Resilience query.
type ResilienceResult struct {
	// Epsilon is the largest certified ℓ∞ perturbation radius: for every
	// input within Epsilon of the nominal point (and inside the domain),
	// the output stays at or below the threshold.
	Epsilon float64
	// Breaking is a concrete violating input found just beyond the
	// certified radius (nil when the search never saw a violation).
	Breaking []float64
	// BreakingValue is the output at Breaking.
	BreakingValue float64
	// Certified reports whether even the smallest probed radius held.
	Certified bool
	// Iterations is the number of binary-search steps (each one MILP query).
	Iterations int
	// Elapsed is the total wall-clock time.
	Elapsed time.Duration
}

// ResilienceOptions tune the binary search.
type ResilienceOptions struct {
	// MaxIterations bounds binary-search steps; 0 means 10.
	MaxIterations int
	// Query forwards options to each ProveUpperBound call.
	Query Options
}

// Resilience computes the maximum ℓ∞ perturbation radius around the nominal
// input x0 under which output[outIndex] provably stays ≤ threshold — the
// "maximum resilience" measure of Cheng et al. (ATVA 2017) that the paper's
// verification methodology builds on. The search space is clipped to the
// given domain box. The nominal point itself must satisfy the property.
func Resilience(net *nn.Network, x0 []float64, domain []bounds.Interval, outIndex int, threshold float64, opts ResilienceOptions) (*ResilienceResult, error) {
	return ResilienceCtx(context.Background(), net, x0, domain, outIndex, threshold, opts)
}

// ResilienceCtx is Resilience under a context. Each probe re-compiles the
// shrunken ball region (the region changes every binary-search step, so
// the encoding cannot be shared) under the context; cancellation or an
// expired deadline ends the search early and returns the largest radius
// certified so far — the anytime answer — with no error.
func ResilienceCtx(ctx context.Context, net *nn.Network, x0 []float64, domain []bounds.Interval, outIndex int, threshold float64, opts ResilienceOptions) (*ResilienceResult, error) {
	start := time.Now()
	if len(x0) != net.InputDim() {
		return nil, fmt.Errorf("verify: nominal point dim %d, network input %d", len(x0), net.InputDim())
	}
	if len(domain) != net.InputDim() {
		return nil, fmt.Errorf("verify: domain dim %d, network input %d", len(domain), net.InputDim())
	}
	for i, iv := range domain {
		if !iv.Contains(x0[i]) {
			return nil, fmt.Errorf("verify: nominal point coordinate %d (%g) outside domain [%g, %g]", i, x0[i], iv.Lo, iv.Hi)
		}
	}
	if v := net.Forward(x0)[outIndex]; v > threshold {
		return nil, fmt.Errorf("verify: nominal point already violates the property (%g > %g)", v, threshold)
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = 10
	}

	// The largest radius that can matter: beyond it the clipped ball is
	// the whole domain.
	hiEps := 0.0
	for i, iv := range domain {
		hiEps = math.Max(hiEps, math.Max(x0[i]-iv.Lo, iv.Hi-x0[i]))
	}

	ballRegion := func(eps float64) *InputRegion {
		box := make([]bounds.Interval, len(x0))
		for i, iv := range domain {
			box[i] = bounds.Interval{
				Lo: math.Max(iv.Lo, x0[i]-eps),
				Hi: math.Min(iv.Hi, x0[i]+eps),
			}
		}
		return &InputRegion{Box: box}
	}

	res := &ResilienceResult{}
	lo, hi := 0.0, hiEps // lo = certified, hi = not certified (or untested)

	probe := func(eps float64) (*ProveResult, error) {
		c, err := Compile(ctx, net, ballRegion(eps), opts.Query)
		if err != nil {
			return nil, err
		}
		return c.ProveUpperBound(ctx, outIndex, threshold, opts.Query)
	}

	// First probe the full radius: everything may already be safe.
	pr, err := probe(hiEps)
	if err != nil {
		return nil, err
	}
	res.Iterations++
	if pr.Outcome == Proved {
		res.Epsilon = hiEps
		res.Certified = true
		res.Elapsed = time.Since(start)
		return res, nil
	}
	if pr.Outcome == Violated {
		res.Breaking = pr.CounterExample
		res.BreakingValue = pr.CounterValue
	}

	for res.Iterations < maxIter {
		if ctx.Err() != nil {
			break // anytime: report the largest radius certified so far
		}
		mid := (lo + hi) / 2
		pr, err := probe(mid)
		if err != nil {
			return nil, err
		}
		res.Iterations++
		switch pr.Outcome {
		case Proved:
			lo = mid
		case Violated:
			hi = mid
			res.Breaking = pr.CounterExample
			res.BreakingValue = pr.CounterValue
		default: // Timeout: conservatively treat as uncertified
			hi = mid
		}
	}
	res.Epsilon = lo
	res.Certified = lo > 0 || res.Breaking == nil
	res.Elapsed = time.Since(start)
	return res, nil
}

// MinOutput computes the minimum of output neuron outIndex over the region.
// The result reuses MaxResult with mirrored semantics: Value is the minimum
// found and UpperBound holds the proven *lower* bound from branch-and-bound
// (equal to Value when Exact).
func MinOutput(net *nn.Network, region *InputRegion, outIndex int, opts Options) (*MaxResult, error) {
	neg := negateOutput(net, outIndex)
	res, err := MaxOutput(neg, region, 0, opts)
	if err != nil {
		return nil, err
	}
	res.Value = -res.Value
	res.UpperBound = -res.UpperBound
	return res, nil
}

// negateOutput builds a single-output copy of net computing −output[idx]
// (weights of the final linear layer are negated; hidden layers shared
// structurally via clone).
func negateOutput(net *nn.Network, idx int) *nn.Network {
	cl := net.Clone()
	last := cl.Layers[len(cl.Layers)-1]
	row := make([]float64, len(last.W[idx]))
	for i, w := range last.W[idx] {
		row[i] = -w
	}
	cl.Layers[len(cl.Layers)-1] = &nn.Layer{
		W:   [][]float64{row},
		B:   []float64{-last.B[idx]},
		Act: last.Act,
	}
	cl.OutputNames = nil
	return cl
}

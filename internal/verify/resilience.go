package verify

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/bounds"
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
	// Certified reports whether some probe was actually proved. A search
	// whose every probe was violated or interrupted established nothing:
	// it is not certified and its Epsilon is 0.
	Certified bool
	// Iterations is the number of binary-search steps (each one MILP query).
	Iterations int
	// Stats sums the probes' solver effort; Elapsed is the wall-clock time
	// of the whole search, per-probe compilation included.
	Stats Stats
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
// compiled region's box. The nominal point itself must satisfy the property.
//
// Each probe re-compiles the shrunken ball region (the region changes every
// binary-search step, so the encoding cannot be shared) under the context;
// cancellation or an expired deadline ends the search early and returns the
// largest radius certified so far — the anytime answer — with no error.
func (c *Compiled) Resilience(ctx context.Context, x0 []float64, outIndex int, threshold float64, opts ResilienceOptions) (*ResilienceResult, error) {
	start := time.Now()
	if err := c.checkOutputs(outIndex); err != nil {
		return nil, err
	}
	domain := c.region.Box
	if len(x0) != len(domain) {
		return nil, fmt.Errorf("verify: nominal point dim %d, network input %d", len(x0), len(domain))
	}
	for i, iv := range domain {
		if !iv.Contains(x0[i]) {
			return nil, fmt.Errorf("verify: nominal point coordinate %d (%g) outside domain [%g, %g]", i, x0[i], iv.Lo, iv.Hi)
		}
	}
	if v := c.net.Forward(x0)[outIndex]; v > threshold {
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

	// probe answers one radius and books its effort and verdict.
	probe := func(eps float64) (Outcome, error) {
		ball, err := Compile(ctx, c.net, ballRegion(eps), opts.Query)
		if err != nil {
			return 0, err
		}
		pr, err := ball.ProveUpperBound(ctx, outIndex, threshold, opts.Query)
		if err != nil {
			return 0, err
		}
		res.Iterations++
		res.Stats.add(pr.Stats)
		switch pr.Outcome {
		case Proved:
			res.Certified = true
		case Violated:
			res.Breaking = pr.CounterExample
			res.BreakingValue = pr.CounterValue
		}
		return pr.Outcome, nil
	}

	// First probe the full radius: everything may already be safe.
	outcome, err := probe(hiEps)
	if err != nil {
		return nil, err
	}
	if outcome == Proved {
		lo = hiEps
	}
	// Otherwise bisect (lo, hi) for the largest radius that still proves.
	for lo < hiEps && res.Iterations < maxIter {
		if ctx.Err() != nil {
			break // anytime: report the largest radius certified so far
		}
		mid := (lo + hi) / 2
		outcome, err := probe(mid)
		if err != nil {
			return nil, err
		}
		if outcome == Proved {
			lo = mid
		} else { // Violated, or Timeout: conservatively uncertified
			hi = mid
		}
	}
	res.Epsilon = lo
	res.Stats.Elapsed = time.Since(start)
	return res, nil
}

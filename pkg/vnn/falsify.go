package vnn

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/attack"
)

// FalsifyOptions tune the gradient-guided falsification pre-pass.
type FalsifyOptions struct {
	// Restarts is the number of random starting points per output; 0
	// means 8.
	Restarts int
	// Steps of PGD per restart; 0 means 60.
	Steps int
	// Seed drives the random restarts.
	Seed int64
}

// FalsifyResult reports the strongest violating input found.
type FalsifyResult struct {
	// Value is the largest output value reached across all outputs — a
	// lower bound on the true maximum (the gap to the verified bound is
	// what only formal analysis can close).
	Value float64
	// Best is the input achieving Value; nil when the region is empty.
	Best []float64
	// Output is the output index achieving Value.
	Output int
	// Evaluations counts forward/backward passes used.
	Evaluations int
}

// FalsifyCtx runs the incomplete, fast counterpart of Verify: PGD ascent
// with random restarts that maximizes each of the given outputs over the
// region. A found violation is a definitive counterexample; finding
// nothing proves nothing (run a Verify proof for that). It completes the
// paper's portfolio — formal bounds, threshold proofs, resilience, and
// falsification — behind the one public API. Cancellation is polled at
// every PGD restart boundary, and an interrupted attack returns the
// strongest violating input found so far instead of an error — the same
// anytime contract Verify has. This is the entry point the vnnd service
// uses, so a drain or client disconnect stops falsification work too.
func FalsifyCtx(ctx context.Context, net *Network, region *Region, outputs []int, opts FalsifyOptions) (*FalsifyResult, error) {
	if len(outputs) == 0 {
		return nil, fmt.Errorf("vnn: Falsify needs at least one output index")
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	best := &FalsifyResult{Value: math.Inf(-1), Output: outputs[0]}
	for _, out := range outputs {
		if ctx.Err() != nil {
			break
		}
		res, err := attack.Maximize(net, region, out, rng, attack.Options{
			Restarts: opts.Restarts,
			Steps:    opts.Steps,
			Cancel:   func() bool { return ctx.Err() != nil },
		})
		if err != nil {
			return nil, err
		}
		best.Evaluations += res.Evaluations
		if res.Value > best.Value {
			best.Value = res.Value
			best.Best = res.Best
			best.Output = out
		}
	}
	return best, nil
}

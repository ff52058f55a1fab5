// Package attack implements gradient-guided falsification of safety
// properties: projected gradient ascent (PGD) on an output neuron over an
// input region. It is the incomplete-but-fast counterpart to the complete
// MILP verifier in package verify — attacks can only find counterexamples,
// never prove their absence, which is exactly the testing-vs-formal-methods
// gap the paper's Sec. II (B) describes. The certification pipeline uses it
// as a cheap pre-pass: a found violation skips the expensive proof attempt.
package attack

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/nn"
	"repro/internal/train"
	"repro/internal/verify"
)

// Options tune the attack.
type Options struct {
	// Restarts is the number of random starting points; 0 means 8.
	Restarts int
	// Steps per restart; 0 means 60.
	Steps int
	// StepSize as a fraction of each coordinate's box width; 0 means 0.05.
	StepSize float64
	// Cancel, when non-nil, is polled at every restart boundary; returning
	// true stops the attack early with the best input found so far (the
	// anytime counterpart of the verifier's context cancellation).
	Cancel func() bool
}

// Result reports the strongest input found.
type Result struct {
	// Best is the input maximizing the output (nil when the region's box
	// is empty).
	Best []float64
	// Value is the output at Best.
	Value float64
	// Evaluations counts forward/backward passes used.
	Evaluations int
}

// Maximize runs PGD ascent on output outIndex of net over the region's box
// (linear constraints are respected by rejection at the starting points and
// projection is box-only; callers needing exact linear-constraint handling
// should verify with MILP). rng must be non-nil.
func Maximize(net *nn.Network, region *verify.InputRegion, outIndex int, rng *rand.Rand, opts Options) (*Result, error) {
	if err := region.Validate(net); err != nil {
		return nil, err
	}
	if outIndex < 0 || outIndex >= net.OutputDim() {
		return nil, fmt.Errorf("attack: output index %d of %d", outIndex, net.OutputDim())
	}
	if rng == nil {
		return nil, fmt.Errorf("attack: rng must be non-nil")
	}
	restarts := opts.Restarts
	if restarts <= 0 {
		restarts = 8
	}
	steps := opts.Steps
	if steps <= 0 {
		steps = 60
	}
	frac := opts.StepSize
	if frac <= 0 {
		frac = 0.05
	}

	res := &Result{Value: math.Inf(-1)}
	dRaw := make([]float64, net.OutputDim())
	cancelled := false
	for r := 0; r < restarts; r++ {
		if opts.Cancel != nil && opts.Cancel() {
			cancelled = true
			break
		}
		x := samplePoint(region, rng)
		if x == nil {
			continue
		}
		for s := 0; s < steps; s++ {
			tr := net.ForwardTrace(x)
			res.Evaluations++
			v := tr.Output()[outIndex]
			if v > res.Value {
				res.Value = v
				res.Best = append(res.Best[:0], x...)
			}
			// Ascend the output gradient, projected onto the box.
			for i := range dRaw {
				dRaw[i] = 0
			}
			dRaw[outIndex] = 1
			g := train.InputGradient(net, tr, dRaw)
			moved := false
			for i := range x {
				iv := region.Box[i]
				step := frac * (iv.Hi - iv.Lo)
				if step == 0 || g[i] == 0 {
					continue
				}
				nx := x[i] + step*sign(g[i])
				nx = math.Max(iv.Lo, math.Min(iv.Hi, nx))
				if nx != x[i] {
					x[i] = nx
					moved = true
				}
			}
			if !moved {
				break // stuck at a corner; restart
			}
		}
		// Final evaluation of the last iterate.
		v := net.Forward(x)[outIndex]
		res.Evaluations++
		if v > res.Value {
			res.Value = v
			res.Best = append(res.Best[:0], x...)
		}
	}
	if res.Best == nil {
		if cancelled {
			return res, nil // stopped before any evaluation: empty anytime answer
		}
		return nil, fmt.Errorf("attack: no starting point satisfied the region's linear constraints")
	}
	return res, nil
}

// samplePoint rejection-samples a box point satisfying the region's linear
// constraints (up to a fixed budget; nil when the budget runs out).
func samplePoint(region *verify.InputRegion, rng *rand.Rand) []float64 {
	for tries := 0; tries < 200; tries++ {
		x := make([]float64, len(region.Box))
		for i, iv := range region.Box {
			x[i] = iv.Lo + rng.Float64()*(iv.Hi-iv.Lo)
		}
		if region.Contains(x, 1e-12) {
			return x
		}
	}
	return nil
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}

package verify

import (
	"context"
	"fmt"
	"time"

	"repro/internal/lp"
	"repro/internal/nn"
)

// BoundLadder holds the three successively tighter upper bounds the
// library can compute for an output over a region, with their costs:
//
//	Interval ≥ Relaxation ≥ Exact
//
// Interval analysis is linear-time, the LP relaxation solves one LP, and
// the exact bound runs full branch-and-bound. The ladder quantifies the
// paper's Sec. II (B) claim that testing-adjacent static analyses are cheap
// but imprecise, and complete symbolic reasoning is precise but expensive.
type BoundLadder struct {
	Interval        float64
	IntervalTime    time.Duration
	Relaxation      float64
	RelaxationTime  time.Duration
	Exact           float64
	ExactTime       time.Duration
	ExactConclusive bool
}

// RelaxationBound computes the LP-relaxation upper bound of output
// outIndex over the region: the MILP encoding with every ReLU indicator
// relaxed to [0,1], solved once. It is always an upper bound on the true
// maximum (the relaxation contains every integer-feasible point) and is
// the root bound branch-and-bound starts from.
func RelaxationBound(net *nn.Network, region *InputRegion, outIndex int, opts Options) (float64, error) {
	if outIndex < 0 || outIndex >= net.OutputDim() {
		return 0, fmt.Errorf("verify: output index %d of %d", outIndex, net.OutputDim())
	}
	nb, err := prepareBounds(context.Background(), net, region, opts)
	if err != nil {
		return 0, err
	}
	enc, err := encode(net, region, nb, encodeOptions{relaxBinaries: true, prefixLayers: -1})
	if err != nil {
		return 0, err
	}
	enc.model.SetObjective(enc.outputs[outIndex], 1)
	enc.model.SetMaximize(true)
	sol, err := lp.Solve(enc.model, lp.Options{})
	if err != nil {
		return 0, err
	}
	if sol.Status != lp.Optimal {
		return 0, fmt.Errorf("verify: relaxation LP %v", sol.Status)
	}
	return sol.Objective, nil
}

// Ladder computes all three bounds for one output over a region.
func Ladder(net *nn.Network, region *InputRegion, outIndex int, opts Options) (*BoundLadder, error) {
	out := &BoundLadder{}

	start := time.Now()
	nb, err := prepareBounds(context.Background(), net, region, Options{}) // plain intervals
	if err != nil {
		return nil, err
	}
	out.Interval = nb.Output()[outIndex].Hi
	out.IntervalTime = time.Since(start)

	start = time.Now()
	relax, err := RelaxationBound(net, region, outIndex, opts)
	if err != nil {
		return nil, err
	}
	out.Relaxation = relax
	out.RelaxationTime = time.Since(start)

	mx, err := MaxOutput(net, region, outIndex, opts)
	if err != nil {
		return nil, err
	}
	out.Exact = mx.Value
	out.ExactTime = mx.Stats.Elapsed
	out.ExactConclusive = mx.Exact
	if !mx.Exact {
		out.Exact = mx.UpperBound // still a sound upper bound
	}
	return out, nil
}

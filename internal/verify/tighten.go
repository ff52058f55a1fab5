package verify

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/nn"
)

// TightenLPWorkers refines interval pre-activation bounds with linear
// programming: for every unstable hidden neuron it maximizes and minimizes
// the neuron's affine pre-activation over the LP relaxation of everything
// encoded so far (input region, linear scenario constraints, relaxed ReLU
// envelopes of earlier layers). Layers are processed front to back and
// downstream intervals are re-propagated after each layer, so later layers
// profit from earlier tightening.
//
// The result is always sound: LP bounds are intersected with the interval
// bounds, never widened. This is the preprocessing ablation benchmarked in
// BenchmarkBigMAblation.
//
// Each layer's bound LPs run as one warm-started chain in neuron order:
// within a layer only the objective changes between solves, so the saved
// simplex basis stays primal feasible and phase 1 never reruns. The
// bounds are therefore a function of (net, region, nb) alone. workers is
// ignored; the parameter stays only because the benchmark harness calls
// this signature, and the harness is frozen (ROADMAP "Measurement
// protocol").
func TightenLPWorkers(net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, workers int) (*bounds.NetworkBounds, error) {
	return tightenLP(context.Background(), net, region, nb, new(int))
}

// tightenLP is TightenLPWorkers under a context: the ctx deadline (or
// cancellation) bounds preprocessing too, not only the later MILP solve,
// so a user budget can no longer be consumed entirely by tightening. The
// poll reaches into each bound LP's pivot loop. Interruption is graceful
// and sound: tightening stops where it is and the bounds computed so far
// are returned (interval analysis alone is already sound; every completed
// LP only shrank it), with no error. Note an interrupted pass makes the
// resulting bounds depend on where the deadline fell — deterministic runs
// need either no deadline or one generous enough not to fire. *encodes
// grows by the prefix encodings performed (one per layer reached).
func tightenLP(ctx context.Context, net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, encodes *int) (*bounds.NetworkBounds, error) {
	cancelled := func() bool { return ctx.Err() != nil }
	hints := make([][]bounds.Interval, len(net.Layers))
	cur := nb
	for li := 0; li+1 < len(net.Layers); li++ {
		if net.Layers[li].Act != nn.ReLU {
			return nil, fmt.Errorf("verify: TightenLP hidden layer %d is %v, need relu", li, net.Layers[li].Act)
		}
		if cancelled() {
			return cur, nil // sound: every completed layer only tightened
		}
		enc, err := encode(net, region, cur, encodeOptions{relaxBinaries: true, prefixLayers: li})
		if err != nil {
			return nil, err
		}
		*encodes++
		prevVars := enc.inputs
		if li > 0 {
			prevVars = enc.posts[li-1]
		}
		layer := net.Layers[li]
		tightened := make([]bounds.Interval, layer.OutDim())
		copy(tightened, cur.Layers[li].Pre)
		solver := lp.NewSolver(enc.model)
		for j, row := range layer.W {
			iv := tightened[j]
			if !iv.StraddlesZero() || cancelled() {
				continue // stable, or out of budget: keep the interval bound
			}
			for k, w := range row {
				enc.model.SetObjective(prevVars[k], w)
			}
			hi, err := solveDirection(solver, true, cancelled)
			if err != nil {
				return nil, err
			}
			lo, err := solveDirection(solver, false, cancelled)
			if err != nil {
				return nil, err
			}
			for k := range row {
				enc.model.SetObjective(prevVars[k], 0)
			}
			if hi.ok {
				if v := hi.val + layer.B[j]; v < iv.Hi {
					iv.Hi = v
				}
			}
			if lo.ok {
				if v := lo.val + layer.B[j]; v > iv.Lo {
					iv.Lo = v
				}
			}
			if iv.Lo > iv.Hi { // numerical crossing; keep the midpoint
				mid := (iv.Lo + iv.Hi) / 2
				iv = bounds.Interval{Lo: mid, Hi: mid}
			}
			tightened[j] = iv
		}
		hints[li] = tightened
		// Refresh all downstream intervals with the new knowledge.
		next, err := bounds.PropagateWithHints(net, region.Box, hints)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

type dirResult struct {
	ok  bool
	val float64
}

// solveDirection re-solves the layer's persistent model for one objective
// direction. Flipping the direction only changes costs, so every solve
// after the first warm-starts from the previous basis. A cancellation mid-
// solve surfaces as IterationLimit and leaves the interval untouched.
func solveDirection(s *lp.Solver, maximize bool, cancel func() bool) (dirResult, error) {
	s.Model().SetMaximize(maximize)
	sol, err := s.Solve(lp.Options{Cancel: cancel})
	if err != nil {
		return dirResult{}, err
	}
	if sol.Status != lp.Optimal {
		// Unbounded, cancelled, or iteration-limited directions simply do
		// not improve the interval; infeasible regions are caught by the
		// caller's later full solve.
		return dirResult{}, nil
	}
	return dirResult{ok: true, val: sol.Objective}, nil
}

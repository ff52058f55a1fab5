package verify

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/nn"
)

// neuronBounds is the LP answer for one neuron's pre-activation.
type neuronBounds struct {
	hi, lo dirResult
}

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
// The per-neuron bound LPs of each layer are distributed over the given
// number of workers (0 means GOMAXPROCS). Every worker owns a clone of the
// layer encoding and a persistent warm-started lp.Solver: within a layer
// only the objective changes between solves, so the saved simplex basis
// stays primal feasible and phase 1 never reruns. Neurons are assigned to
// workers statically (round-robin by index), which keeps the result
// deterministic for a fixed worker count.
func TightenLPWorkers(net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, workers int) (*bounds.NetworkBounds, error) {
	return tightenLP(context.Background(), net, region, nb, workers, new(int))
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
func tightenLP(ctx context.Context, net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, workers int, encodes *int) (*bounds.NetworkBounds, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
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

		// The unstable neurons are the LP work items for this layer.
		jobs := make([]int, 0, layer.OutDim())
		for j := range layer.W {
			if cur.Layers[li].Pre[j].StraddlesZero() {
				jobs = append(jobs, j)
			}
		}
		if len(jobs) == 0 {
			hints[li] = tightened
			next, err := bounds.PropagateWithHints(net, region.Box, hints)
			if err != nil {
				return nil, err
			}
			cur = next
			continue
		}

		nw := workers
		if nw > len(jobs) {
			nw = len(jobs)
		}
		results := make([]neuronBounds, layer.OutDim())
		errs := make([]error, nw)
		run := func(slot int, model *lp.Model) {
			solver := lp.NewSolver(model)
			for idx := slot; idx < len(jobs); idx += nw {
				if cancelled() {
					return // remaining neurons keep their interval bounds
				}
				j := jobs[idx]
				row := layer.W[j]
				for k, w := range row {
					model.SetObjective(prevVars[k], w)
				}
				hi, err := solveDirection(solver, true, cancelled)
				if err != nil {
					errs[slot] = err
					return
				}
				lo, err := solveDirection(solver, false, cancelled)
				if err != nil {
					errs[slot] = err
					return
				}
				for k := range row {
					model.SetObjective(prevVars[k], 0)
				}
				results[j] = neuronBounds{hi: hi, lo: lo}
			}
		}
		if nw == 1 {
			run(0, enc.model)
		} else {
			var wg sync.WaitGroup
			for slot := 0; slot < nw; slot++ {
				wg.Add(1)
				go func(slot int, model *lp.Model) {
					defer wg.Done()
					run(slot, model)
				}(slot, enc.model.Clone())
			}
			wg.Wait()
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		// Intersect in neuron order — deterministic regardless of scheduling.
		for _, j := range jobs {
			iv := cur.Layers[li].Pre[j]
			r := results[j]
			if r.hi.ok {
				if v := r.hi.val + layer.B[j]; v < iv.Hi {
					iv.Hi = v
				}
			}
			if r.lo.ok {
				if v := r.lo.val + layer.B[j]; v > iv.Lo {
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

// solveDirection re-solves the worker's persistent model for one objective
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

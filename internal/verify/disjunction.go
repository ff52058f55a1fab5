package verify

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/nn"
)

// MaxOverOutputsSingleMILP answers the same query as MaxOverOutputs — the
// maximum over several output neurons across the region — with one MILP
// instead of one per output. The disjunction max_k y_k is encoded with
// selector binaries s_k:
//
//	maximize t
//	t ≤ y_k + M_k·(1−s_k)  for every k,   Σ_k s_k = 1
//
// where M_k comes from the outputs' interval bounds. One solve amortizes
// the shared network encoding across components but adds K binaries; which
// variant wins is workload-dependent (the per-output form also
// parallelizes; see Options.Parallel).
func MaxOverOutputsSingleMILP(net *nn.Network, region *InputRegion, outIndices []int, opts Options) (*MaxResult, error) {
	if len(outIndices) == 0 {
		return nil, fmt.Errorf("verify: MaxOverOutputsSingleMILP needs at least one output index")
	}
	for _, oi := range outIndices {
		if oi < 0 || oi >= net.OutputDim() {
			return nil, fmt.Errorf("verify: output index %d of %d", oi, net.OutputDim())
		}
	}
	start := time.Now()
	ctx := context.Background()
	nb, err := prepareBounds(ctx, net, region, opts)
	if err != nil {
		return nil, err
	}
	enc, err := encode(net, region, nb, encodeOptions{prefixLayers: -1})
	if err != nil {
		return nil, err
	}

	// Bounds for t and the big-M constants.
	outB := nb.Output()
	tHi := math.Inf(-1)
	tLo := math.Inf(1)
	for _, oi := range outIndices {
		tHi = math.Max(tHi, outB[oi].Hi)
		tLo = math.Min(tLo, outB[oi].Lo)
	}
	t := enc.model.AddVariable(tLo, tHi, "t.max")
	selectors := make([]int, len(outIndices))
	sumTerms := make([]lp.Term, 0, len(outIndices))
	for i, oi := range outIndices {
		s := enc.model.AddVariable(0, 1, fmt.Sprintf("sel%d", i))
		selectors[i] = s
		sumTerms = append(sumTerms, lp.Term{Var: s, Coeff: 1})
		// t − y_k − M_k + M_k·s_k ≤ 0  with  M_k = tHi − Lo_k.
		mk := tHi - outB[oi].Lo
		enc.model.AddConstraint([]lp.Term{
			{Var: t, Coeff: 1},
			{Var: enc.outputs[oi], Coeff: -1},
			{Var: s, Coeff: mk},
		}, lp.LE, mk, fmt.Sprintf("t<=y%d", oi))
	}
	enc.model.AddConstraint(sumTerms, lp.EQ, 1, "one-selector")
	enc.model.SetObjective(t, 1)
	enc.model.SetMaximize(true)

	res, err := milp.SolveCtx(ctx, milp.Problem{
		Model:    enc.model,
		Integers: append(append([]int(nil), enc.binaries...), selectors...),
	}, opts.milpOptions())
	if err != nil {
		return nil, err
	}
	out := &MaxResult{Stats: enc.stats(res, start)}
	out.Stats.Binaries = len(enc.binaries) // selectors are bookkeeping, not neurons
	switch res.Status {
	case milp.Optimal:
		out.Exact = true
		out.Value = res.Objective
		out.UpperBound = res.Objective
		out.Witness = extractWitness(enc, res.X)
	case milp.Infeasible:
		return nil, fmt.Errorf("verify: region is empty (MILP infeasible)")
	default:
		out.UpperBound = res.Bound
		if res.HasSolution {
			out.Value = res.Objective
			out.Witness = extractWitness(enc, res.X)
		} else {
			out.Value = math.Inf(-1)
		}
	}
	return out, nil
}

package verify

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/nn"
)

// Phases is one compilation's own cost by phase. It rides on the
// Compiled, so a concurrent or earlier compile never shows up in
// another's account; whoever runs compiles (the server) sums them.
// Queries never re-encode or re-tighten: encode and tightenLP are called
// only from compile.go and tighten.go (a CI guard pins it).
type Phases struct {
	// Tighten is the wall time of LP bound tightening, its prefix
	// encodings included (zero when Options.Tighten is off); Encode is
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
// bound propagation, optional LP tightening (opts.Tighten, fanned across
// opts.Workers and bounded by ctx — see tightenLP), and the MILP
// encoding. The ctx deadline covers the whole compilation; tightening
// stops early (soundly) when the budget runs out.
func Compile(ctx context.Context, net *nn.Network, region *InputRegion, opts Options) (*Compiled, error) {
	start := time.Now()
	if err := region.Validate(net); err != nil {
		return nil, err
	}
	nb, err := bounds.Propagate(net, region.Box)
	if err != nil {
		return nil, err
	}
	var ph Phases
	if opts.Tighten {
		t0 := time.Now()
		if nb, err = tightenLP(ctx, net, region, nb, opts.Workers, &ph.EncodePasses); err != nil {
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
		Tightened:   opts.Tighten,
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
// hidden layer (one row per hidden layer), as computed — and, under
// opts.Tighten, LP-tightened — during compilation. The rows are views into
// the compiled state and must be treated as read-only. Analyses that need
// activation-phase information over the region (e.g. traceability interval
// conditions) consume these instead of re-running propagation.
func (c *Compiled) PreActivationBounds() [][]bounds.Interval {
	out := make([][]bounds.Interval, 0, len(c.nb.Layers)-1)
	for li := 0; li+1 < len(c.nb.Layers); li++ {
		out = append(out, c.nb.Layers[li].Pre)
	}
	return out
}

// checkOutputs validates output indices against the network.
func (c *Compiled) checkOutputs(outs ...int) error {
	for _, oi := range outs {
		if oi < 0 || oi >= c.net.OutputDim() {
			return fmt.Errorf("verify: output index %d of %d", oi, c.net.OutputDim())
		}
	}
	return nil
}

// MaxOutput computes the maximum of output neuron outIndex over the region
// on the shared encoding.
func (c *Compiled) MaxOutput(ctx context.Context, outIndex int, opts Options) (*MaxResult, error) {
	return c.MaxLinear(ctx, map[int]float64{outIndex: 1}, opts)
}

// MaxLinear computes the maximum of the linear functional
// Σ coeffs[k]·output[k] over the region. The empty functional is rejected.
func (c *Compiled) MaxLinear(ctx context.Context, coeffs map[int]float64, opts Options) (*MaxResult, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("verify: MaxLinear needs at least one objective term")
	}
	for oi := range coeffs {
		if err := c.checkOutputs(oi); err != nil {
			return nil, err
		}
	}
	return maxWithEncoding(ctx, c.enc.withModelClone(), coeffs, opts)
}

// LinearIntervalBound returns the interval upper bound on
// Σ coeffs[k]·output[k] implied by the compiled output bounds alone.
func (c *Compiled) LinearIntervalBound(coeffs map[int]float64) float64 {
	return c.enc.intervalBound(coeffs)
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

// MaxOverOutputs returns the maximum over several output neurons (one MILP
// per output — a disjunction solved as independent problems, concurrently
// when opts.Parallel is set), sharing the compiled encoding. With Parallel,
// Stats.Elapsed sums per-query times and so exceeds wall-clock time.
// The ctx deadline, if any, bounds the whole call.
func (c *Compiled) MaxOverOutputs(ctx context.Context, outIndices []int, opts Options) (*MaxResult, error) {
	if len(outIndices) == 0 {
		return nil, fmt.Errorf("verify: MaxOverOutputs needs at least one output index")
	}
	if err := c.checkOutputs(outIndices...); err != nil {
		return nil, err
	}

	// With Parallel and the auto worker count, the core budget is divided
	// across the concurrent queries instead of letting each MILP claim all
	// of GOMAXPROCS (K queries × P workers would oversubscribe the CPU and
	// hold K×P dense tableaus). An explicit Workers value is honored as-is.
	innerOpts := opts
	if opts.Parallel && opts.Workers == 0 {
		innerOpts.Workers = runtime.GOMAXPROCS(0) / len(outIndices)
		if innerOpts.Workers < 1 {
			innerOpts.Workers = 1
		}
	}
	solveOne := func(out int) (*MaxResult, error) {
		return maxWithEncoding(ctx, c.enc.withModelClone(), map[int]float64{out: 1}, innerOpts)
	}

	results := make([]*MaxResult, len(outIndices))
	errs := make([]error, len(outIndices))
	if opts.Parallel {
		var wg sync.WaitGroup
		for i, oi := range outIndices {
			wg.Add(1)
			go func(slot, out int) {
				defer wg.Done()
				results[slot], errs[slot] = solveOne(out)
			}(i, oi)
		}
		wg.Wait()
	} else {
		for i, oi := range outIndices {
			results[i], errs[i] = solveOne(oi)
		}
	}
	best := &MaxResult{Exact: true, Value: math.Inf(-1), UpperBound: math.Inf(-1)}
	for i, r := range results {
		if errs[i] != nil {
			return nil, errs[i]
		}
		best.Stats.add(r.Stats)
		if r.Value > best.Value {
			best.Value = r.Value
			best.Witness = r.Witness
		}
		if r.UpperBound > best.UpperBound {
			best.UpperBound = r.UpperBound
		}
		if !r.Exact {
			best.Exact = false
		}
	}
	return best, nil
}

// ProveUpperBound proves output[outIndex] ≤ threshold over the region, or
// returns a counterexample, on the shared encoding. The result always
// carries BestBound — the tightest proven upper bound on the output at the
// moment the query ended — so an interrupted query still returns a usable
// anytime answer.
func (c *Compiled) ProveUpperBound(ctx context.Context, outIndex int, threshold float64, opts Options) (*ProveResult, error) {
	if err := c.checkOutputs(outIndex); err != nil {
		return nil, err
	}
	return c.ProveLinearUpperBound(ctx, map[int]float64{outIndex: 1}, threshold, opts)
}

// ProveLinearUpperBound proves Σ coeffs[k]·output[k] ≤ threshold over the
// region, or returns a counterexample. This is the general linear output
// inequality the property algebra in pkg/vnn compiles to.
//
// The query is encoded as a feasibility problem: the functional is
// constrained to exceed the threshold and branch-and-bound searches for any
// integer-feasible point; infeasibility proves the bound.
func (c *Compiled) ProveLinearUpperBound(ctx context.Context, coeffs map[int]float64, threshold float64, opts Options) (*ProveResult, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("verify: ProveLinearUpperBound needs at least one term")
	}
	for oi := range coeffs {
		if err := c.checkOutputs(oi); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	intervalHi := c.LinearIntervalBound(coeffs)

	pr := &ProveResult{Threshold: threshold, BestBound: intervalHi}
	// Fast path: interval analysis alone may already prove the bound.
	if intervalHi <= threshold {
		pr.Outcome = Proved
		stable, total := c.nb.StableNeurons()
		pr.Stats = Stats{Elapsed: time.Since(start), StableNeurons: stable, HiddenNeurons: total}
		return pr, nil
	}

	enc := c.enc.withModelClone()
	// Feasibility of "functional strictly above threshold". For the single-
	// output case the output variable itself is bound-restricted to
	// [max(lo,thr), max(hi,thr)] (cheap: no extra row); a general functional
	// gains one constraint Σ c·y ≥ threshold.
	if len(coeffs) == 1 {
		for oi := range coeffs {
			cf := coeffs[oi]
			if cf == 1 {
				y := enc.outputs[oi]
				lo, hi := enc.model.Bounds(y)
				enc.model.SetBounds(y, math.Max(lo, threshold), math.Max(hi, threshold))
			} else {
				enc.addLinearFloor(coeffs, threshold)
			}
		}
	} else {
		enc.addLinearFloor(coeffs, threshold)
	}
	res, err := solveObjective(ctx, enc, coeffs, opts)
	if err != nil {
		return nil, err
	}
	pr.Stats = enc.stats(res, start)
	objective := func(x []float64) float64 {
		var v float64
		out := c.net.Forward(x)
		for _, oi := range outputOrder(coeffs) {
			v += coeffs[oi] * out[oi]
		}
		return v
	}
	switch {
	case res.Status == milp.Infeasible:
		pr.Outcome = Proved
		pr.BestBound = math.Min(intervalHi, threshold)
	case res.HasSolution && res.Objective > threshold+1e-7:
		pr.Outcome = Violated
		pr.CounterExample = extractWitness(enc, res.X)
		pr.CounterValue = objective(pr.CounterExample)
		pr.BestBound = math.Min(intervalHi, math.Max(res.Bound, threshold))
	case res.Status == milp.Optimal:
		// Optimum exists but does not exceed the threshold: the region
		// touches the threshold at most; that still proves ≤.
		pr.Outcome = Proved
		pr.BestBound = math.Min(intervalHi, math.Max(res.Objective, threshold))
	default:
		// Interrupted (deadline, cancellation, or node budget): no verdict,
		// but the branch-and-bound bound is still a sound anytime answer.
		pr.Outcome = Timeout
		pr.BestBound = math.Min(intervalHi, math.Max(res.Bound, threshold))
	}
	return pr, nil
}

// addLinearFloor adds the constraint Σ coeffs[k]·output[k] ≥ threshold to
// the encoding's model. (Term order within a constraint does not affect
// the ingested matrix, so map iteration order is harmless.)
func (e *encoding) addLinearFloor(coeffs map[int]float64, threshold float64) {
	terms := make([]lp.Term, 0, len(coeffs))
	for oi, cf := range coeffs {
		terms = append(terms, lp.Term{Var: e.outputs[oi], Coeff: cf})
	}
	e.model.AddConstraint(terms, lp.GE, threshold, "prove.floor")
}

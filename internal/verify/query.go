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

// Outcome classifies a verification result.
type Outcome int

// Possible outcomes.
const (
	// Proved means the property was established for the whole region.
	Proved Outcome = iota
	// Violated means a concrete counterexample input was found.
	Violated
	// Timeout means resources ran out before a conclusion — the paper's
	// "n.a. (unable to find maximum)" row. The result still carries the
	// anytime bounds proven up to the interruption.
	Timeout
)

// String returns a readable outcome name.
func (o Outcome) String() string {
	switch o {
	case Proved:
		return "proved"
	case Violated:
		return "violated"
	case Timeout:
		return "timeout"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Options tune a verification run. There is no time limit here: budgets
// and cancellation are the context's (Compile and the Compiled methods
// take one); the free query functions below run unbounded.
type Options struct {
	// MaxNodes bounds branch-and-bound nodes; 0 means unlimited.
	MaxNodes int
	// Tighten selects LP-based bound tightening before encoding
	// (slower preprocessing, smaller search trees).
	Tighten bool
	// Parallel lets MaxOverOutputs solve its per-output MILPs concurrently
	// (they are independent problems); single queries are unaffected.
	Parallel bool
	// Workers is the number of branch-and-bound workers inside each MILP
	// solve, and the fan-out of TightenLP's per-neuron LPs: 0 means
	// GOMAXPROCS, 1 forces the sequential engine. For any fixed value the
	// underlying search is deterministic.
	Workers int
	// Progress, when non-nil, streams incumbent/bound/node events from
	// every MILP solve the query runs (see milp.Options.Progress).
	Progress func(milp.Event)
}

// milpOptions assembles the branch-and-bound options for one solve.
// Deadlines and cancellation travel via context, not options.
func (o Options) milpOptions() milp.Options {
	return milp.Options{
		MaxNodes: o.MaxNodes,
		Workers:  o.Workers,
		Progress: o.Progress,
	}
}

// Stats describes the effort a query took.
type Stats struct {
	Elapsed       time.Duration
	Nodes         int
	LPPivots      int
	Binaries      int // unstable neurons that required an indicator
	StableNeurons int // neurons encoded linearly thanks to interval bounds
	HiddenNeurons int
	// LP is the solver's own account of the node relaxations: warm and cold
	// solves, why warm attempts fell back, pivots by kind, certificates.
	LP lp.Stats
	// MaxDepth and OpenHighWater are the shape of the branch-and-bound tree:
	// the deepest explored node and the most nodes ever open at once. Over
	// several searches (one per output) each is the largest.
	MaxDepth      int
	OpenHighWater int
}

// MaxResult is the answer to a MaxOutput query.
type MaxResult struct {
	// Exact reports whether Value is the proven maximum (false on timeout).
	Exact bool
	// Value is the maximum output value found (a lower bound on the true
	// maximum when !Exact and a witness exists).
	Value float64
	// UpperBound is the proven upper bound from branch-and-bound
	// (equals Value when Exact).
	UpperBound float64
	// Witness is an input achieving Value, nil if none was found.
	Witness []float64
	Stats   Stats
}

// MaxOutput computes the maximum of output neuron outIndex over the region.
// This is the paper's "maximum lateral velocity when a vehicle exists on
// the left" query. It is a convenience wrapper that compiles the network
// for one query; to run several queries, Compile once and use the
// Compiled methods (or the public pkg/vnn API).
func MaxOutput(net *nn.Network, region *InputRegion, outIndex int, opts Options) (*MaxResult, error) {
	start := time.Now()
	ctx := context.Background()
	c, err := Compile(ctx, net, region, opts)
	if err != nil {
		return nil, err
	}
	res, err := c.MaxOutput(ctx, outIndex, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start) // include compilation, as before
	return res, nil
}

// solveObjective sets Σ coeffs[k]·output[k] as the (maximized) objective on
// the encoding's model and runs the MILP under ctx. The encoding's model is
// mutated; callers pass a clone when the encoding is shared.
func solveObjective(ctx context.Context, enc *encoding, coeffs map[int]float64, opts Options) (*milp.Result, error) {
	for oi, cf := range coeffs {
		enc.model.SetObjective(enc.outputs[oi], cf)
	}
	enc.model.SetMaximize(true)
	return milp.SolveCtx(ctx, milp.Problem{Model: enc.model, Integers: enc.binaries}, opts.milpOptions())
}

// maxWithEncoding runs a max-objective MILP on an already-built encoding
// and shapes the result, including the anytime bounds on interruption.
func maxWithEncoding(ctx context.Context, enc *encoding, coeffs map[int]float64, opts Options) (*MaxResult, error) {
	start := time.Now()
	res, err := solveObjective(ctx, enc, coeffs, opts)
	if err != nil {
		return nil, err
	}
	out := &MaxResult{Stats: enc.stats(res, start)}
	switch res.Status {
	case milp.Optimal:
		out.Exact = true
		out.Value = res.Objective
		out.UpperBound = res.Objective
		out.Witness = extractWitness(enc, res.X)
	case milp.Infeasible:
		return nil, fmt.Errorf("verify: region is empty (MILP infeasible)")
	default: // deadline, cancellation, or node limits — the anytime answer
		out.UpperBound = res.Bound
		// The interval bound from compilation is always proven; a solve
		// interrupted before establishing anything better falls back to it
		// instead of reporting a vacuous +Inf.
		if ivb := enc.intervalBound(coeffs); ivb < out.UpperBound {
			out.UpperBound = ivb
		}
		if res.HasSolution {
			out.Value = res.Objective
			out.Witness = extractWitness(enc, res.X)
		} else {
			out.Value = math.Inf(-1)
		}
	}
	return out, nil
}

// ProveResult is the answer to a ProveUpperBound query.
type ProveResult struct {
	Outcome Outcome
	// Threshold echoes the bound that was checked.
	Threshold float64
	// CounterExample is an input with output > Threshold when Violated.
	CounterExample []float64
	// CounterValue is the network output at the counterexample.
	CounterValue float64
	// BestBound is the tightest proven upper bound on the queried output
	// (or functional) over the region when the query ended, whatever the
	// outcome — the anytime answer a Timeout still carries. When Proved,
	// BestBound ≤ Threshold.
	BestBound float64
	Stats     Stats
}

// ProveUpperBound proves output[outIndex] ≤ threshold over the region, or
// returns a counterexample. This is Table II's last row: "prove that the
// lateral velocity can never be larger than 3 m/s". It is a convenience
// wrapper that compiles the network for one query; to run several queries,
// Compile once and use the Compiled methods (or the public pkg/vnn API).
func ProveUpperBound(net *nn.Network, region *InputRegion, outIndex int, threshold float64, opts Options) (*ProveResult, error) {
	start := time.Now()
	ctx := context.Background()
	c, err := Compile(ctx, net, region, opts)
	if err != nil {
		return nil, err
	}
	res, err := c.ProveUpperBound(ctx, outIndex, threshold, opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Elapsed = time.Since(start) // include compilation, as before
	return res, nil
}

// MaxOverOutputs returns the maximum over several output neurons (one MILP
// per output — a disjunction solved as independent problems, concurrently
// when opts.Parallel is set). The verifier uses it to bound every mixture
// component's μ_lat, which soundly bounds the mixture mean (see package
// gmm). With Parallel, Stats.Elapsed sums per-query times and so exceeds
// wall-clock time.
//
// Bound preparation (interval propagation plus optional LP tightening) and
// the MILP encoding are shared across the outputs: the network is compiled
// once and each per-output solve only swaps the objective on a clone,
// instead of re-encoding the whole network per output.
func MaxOverOutputs(net *nn.Network, region *InputRegion, outIndices []int, opts Options) (*MaxResult, error) {
	start := time.Now()
	ctx := context.Background()
	c, err := Compile(ctx, net, region, opts)
	if err != nil {
		return nil, err
	}
	prepElapsed := time.Since(start)
	res, err := c.MaxOverOutputs(ctx, outIndices, opts)
	if err != nil {
		return nil, err
	}
	// Shared bound preparation + encoding, counted once.
	res.Stats.Elapsed += prepElapsed
	return res, nil
}

func extractWitness(e *encoding, x []float64) []float64 {
	w := make([]float64, len(e.inputs))
	for i, v := range e.inputs {
		w[i] = x[v]
	}
	return w
}

// stats assembles query statistics from an encoding and a MILP result.
func (e *encoding) stats(res *milp.Result, start time.Time) Stats {
	stable, total := e.nb.StableNeurons()
	return Stats{
		Elapsed:       time.Since(start),
		Nodes:         res.Nodes,
		LPPivots:      res.LPPivots,
		LP:            res.LP,
		MaxDepth:      res.MaxDepth,
		OpenHighWater: res.OpenHighWater,
		Binaries:      len(e.binaries),
		StableNeurons: stable,
		HiddenNeurons: total,
	}
}

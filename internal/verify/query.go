package verify

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/lp"
	"repro/internal/milp"
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
// and cancellation are the context's (Compile and every Compiled method
// take one).
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
	// solve, and the fan-out of LP tightening's per-neuron LPs: 0 means
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
	Elapsed time.Duration
	// Solves counts the branch-and-bound searches run: 1 per MILP, 0 when
	// interval bounds alone answered.
	Solves        int
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

// add folds the effort of one more solve into s: work is summed, tree
// shape is the largest seen, and the encoding's neuron counts are the
// latest solve's (they are equal across solves of one encoding).
func (s *Stats) add(r Stats) {
	s.Elapsed += r.Elapsed
	s.Solves += r.Solves
	s.Nodes += r.Nodes
	s.LPPivots += r.LPPivots
	s.LP.Add(r.LP)
	s.MaxDepth = max(s.MaxDepth, r.MaxDepth)
	s.OpenHighWater = max(s.OpenHighWater, r.OpenHighWater)
	s.Binaries = r.Binaries
	s.StableNeurons = r.StableNeurons
	s.HiddenNeurons = r.HiddenNeurons
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
		Solves:        1,
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

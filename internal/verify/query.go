package verify

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/linalg"
	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/nn"
)

// ErrEmptyRegion is a max query's error over a region no input satisfies:
// the query's fault, not the engine's, though only the search finds it.
var ErrEmptyRegion = errors.New("verify: region is empty (MILP infeasible)")

// Outcome is the verdict of one query — the one verdict enum of the
// engine and of pkg/vnn. The constants run from best to worst, an order
// pkg/vnn's Worst relies on.
type Outcome int

// Possible outcomes.
const (
	// Proved means the query concluded: the maximum is proven, or the
	// threshold holds on the whole region.
	Proved Outcome = iota
	// Inconclusive means no verdict was reached — resources ran out (the
	// paper's "n.a. (unable to find maximum)" row), or a threshold proof's
	// search ended on a point it could neither confirm nor rule out. The
	// result still carries the anytime bounds proven so far.
	Inconclusive
	// Violated means a concrete counterexample input was found: its
	// forward pass exceeds the threshold.
	Violated
)

// String returns the outcome's wire name.
func (o Outcome) String() string {
	switch o {
	case Proved:
		return "proved"
	case Inconclusive:
		return "inconclusive"
	case Violated:
		return "violated"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Options tune a query on a Compiled; compilation reads none of them.
// There is no time limit here: budgets and cancellation are the context's
// (Compile and every Compiled method take one).
type Options struct {
	// MaxNodes bounds branch-and-bound nodes; 0 means unlimited.
	MaxNodes int
	// Workers is the only concurrency option: the number of
	// branch-and-bound workers inside a MILP solve; 0 means GOMAXPROCS,
	// 1 the sequential engine. A query's MILP solves (one per output in
	// MaxOverOutputs) run one after another. For any fixed value the
	// search is deterministic.
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

// Stats describes the effort a query took: its searches' milp.Effort
// (Solves is 0 when interval bounds alone answered) and the encoding's
// neuron counts.
type Stats struct {
	Elapsed time.Duration
	milp.Effort
	Binaries      int // unstable neurons that required an indicator
	StableNeurons int // neurons encoded linearly thanks to interval bounds
	HiddenNeurons int
}

// add folds the effort of one more solve into s through milp.Effort.Add,
// sums the elapsed time, and keeps the latest solve's neuron counts (they
// are equal across solves of one encoding).
func (s *Stats) add(r Stats) {
	s.Elapsed += r.Elapsed
	s.Effort.Add(r.Effort)
	s.Binaries = r.Binaries
	s.StableNeurons = r.StableNeurons
	s.HiddenNeurons = r.HiddenNeurons
}

// MaxResult is the answer to every query on a Compiled: the maximum of a
// linear functional of the outputs over the region (MaxLinear,
// MaxOverOutputs), or over the region ∩ {functional ≥ threshold}
// (ProveLinearUpperBound). Whatever the outcome, [Value, UpperBound]
// brackets the functional's maximum over the whole region.
type MaxResult struct {
	// Outcome is the verdict. A max query is Proved when its search
	// concluded and Inconclusive when the budget ran out; a threshold proof
	// is Proved, Violated or Inconclusive.
	Outcome Outcome
	// Value is the functional at Witness by the network's forward pass;
	// -Inf when there is no witness.
	Value float64
	// UpperBound is the proven upper bound on the functional over the
	// region, never below Value; at most the threshold when a threshold
	// proof is Proved.
	UpperBound float64
	// Witness is the search's best input — a counterexample when Violated —
	// or nil if none was found.
	Witness []float64
	Stats   Stats
}

// search is the one query path: it maximizes Σ coeffs[k]·output[k] over
// the region ∩ {functional ≥ *floorp} on a clone of the shared encoding and
// turns the search into an answer. A nil floorp is a max query over the
// whole region; with a floor (a threshold proof, any threshold but NaN)
// the interval bound may settle the query before any MILP runs.
func (c *Compiled) search(ctx context.Context, coeffs map[int]float64, floorp *float64, opts Options) (*MaxResult, error) {
	if len(coeffs) == 0 {
		return nil, fmt.Errorf("verify: a query needs at least one objective term")
	}
	for oi := range coeffs {
		if err := checkOutputs(c.net, oi); err != nil {
			return nil, err
		}
	}
	start := time.Now()
	ivb := c.enc.intervalBound(coeffs)
	prove, floor := floorp != nil, math.Inf(-1)
	if prove {
		floor = *floorp
	}
	out := &MaxResult{Value: math.Inf(-1)}
	if prove && ivb <= floor {
		stable, total := c.nb.StableNeurons()
		out.Outcome, out.UpperBound = Proved, ivb
		out.Stats = Stats{Elapsed: time.Since(start), StableNeurons: stable, HiddenNeurons: total}
		return out, nil
	}
	enc := c.enc.withModelClone()
	if prove && floor > math.Inf(-1) { // a -Inf floor cuts nothing, and the LP takes no infinite row
		enc.addFloor(coeffs, floor)
	}
	mo := opts.milpOptions()
	mo.Heuristic = c.heuristic(enc, coeffs, floor)
	mo.Score = enc.score
	res, err := solveObjective(ctx, enc, coeffs, mo)
	if err != nil {
		return nil, err
	}
	out.Stats = enc.stats(res, start)
	if res.Status == milp.Infeasible {
		if !prove {
			return nil, ErrEmptyRegion
		}
		out.Outcome, out.UpperBound = Proved, math.Min(ivb, floor)
		return out, nil
	}
	concluded := res.Status == milp.Optimal
	// Region points below the floor were cut away, and they lie below it.
	out.UpperBound = math.Max(res.Bound, floor)
	if !concluded {
		// The interval bound from compilation is always proven; a search
		// interrupted before establishing anything better falls back to it
		// instead of reporting a vacuous +Inf.
		out.UpperBound = math.Min(out.UpperBound, ivb)
	}
	if res.HasSolution {
		out.Witness = extractWitness(enc, res.X)
		out.Value = c.value(coeffs, out.Witness)
	}
	switch {
	case prove && out.Value > floor: // a replayed witness, never a leaf's LP value
		out.Outcome = Violated
	case prove && concluded && res.Objective <= floor+1e-7:
		// The maximum touches the threshold at most: that still proves ≤.
		out.Outcome, out.UpperBound = Proved, math.Min(ivb, floor)
	case !prove && concluded:
		out.Outcome = Proved
	default:
		out.Outcome = Inconclusive
	}
	out.UpperBound = math.Max(out.UpperBound, out.Value)
	return out, nil
}

// value is the functional at x by the network's forward pass, summed in
// outputOrder: what a witness is worth, whatever the relaxation at its
// leaf claimed.
func (c *Compiled) value(coeffs map[int]float64, x []float64) float64 {
	return newValuer(c.net, coeffs).value(x)
}

// valuer values inputs for one functional: nn.Network.Forward's reference
// numerics (one linalg.Dot per neuron) in two buffers it owns, then the
// functional's terms summed in outputOrder. One valuer serves one
// goroutine at a time.
type valuer struct {
	net    *nn.Network
	outs   []int
	coeffs []float64
	in     []float64 // an input-sized buffer for the caller
	buf    [2][]float64
}

func newValuer(net *nn.Network, coeffs map[int]float64) *valuer {
	v := &valuer{net: net, outs: outputOrder(coeffs), in: make([]float64, net.InputDim())}
	for _, oi := range v.outs {
		v.coeffs = append(v.coeffs, coeffs[oi])
	}
	width := 0
	for _, l := range net.Layers {
		width = max(width, l.OutDim())
	}
	v.buf = [2][]float64{make([]float64, width), make([]float64, width)}
	return v
}

func (v *valuer) value(x []float64) float64 {
	cur := x
	for li, l := range v.net.Layers {
		next := v.buf[li%2][:l.OutDim()]
		for i, row := range l.W {
			next[i] = l.Act.Apply(linalg.Dot(row, cur) + l.B[i])
		}
		cur = next
	}
	var s float64
	for k, oi := range v.outs {
		s += v.coeffs[k] * cur[oi]
	}
	return s
}

// regionTol is how far outside a linear region row the heuristic still
// takes a point to lie inside it.
const regionTol = 1e-9

// heuristic is a search's primal heuristic (milp.Options.Heuristic). It
// turns a node's LP point into a region point by clamping its input
// coordinates to the box, declines it when a linear region row fails, and
// values it by the forward pass; in a threshold proof (a floor above -Inf)
// it declines values below the floor. A region point's forward pass is
// reached by the exact encoding, so the MILP's maximum is at least its
// value. The valuers are pooled, so the workers' concurrent calls share
// nothing and allocate nothing in steady state.
func (c *Compiled) heuristic(enc *encoding, coeffs map[int]float64, floor float64) func(x, point []float64) (float64, bool) {
	pool := &sync.Pool{New: func() any { return newValuer(c.net, coeffs) }}
	return func(x, point []float64) (float64, bool) {
		v := pool.Get().(*valuer)
		defer pool.Put(v)
		copy(point, x)
		for i, iv := range c.region.Box {
			v.in[i] = math.Min(math.Max(x[enc.inputs[i]], iv.Lo), iv.Hi)
			point[enc.inputs[i]] = v.in[i]
		}
		if !c.region.Contains(v.in, regionTol) {
			return 0, false
		}
		val := v.value(v.in)
		if val < floor {
			return 0, false
		}
		return val, true
	}
}

// solveObjective sets Σ coeffs[k]·output[k] as the (maximized) objective on
// the encoding's model and runs the MILP under ctx. The encoding's model is
// mutated; callers pass a clone when the encoding is shared.
func solveObjective(ctx context.Context, enc *encoding, coeffs map[int]float64, opts milp.Options) (*milp.Result, error) {
	for oi, cf := range coeffs {
		enc.model.SetObjective(enc.outputs[oi], cf)
	}
	enc.model.SetMaximize(true)
	return milp.SolveCtx(ctx, milp.Problem{Model: enc.model, Integers: enc.binaries}, opts)
}

// addFloor restricts the encoding's model to Σ coeffs[k]·output[k] ≥ floor:
// a single unit-coefficient functional through its output variable's own
// bounds (no extra row), any other through one prove.floor row. (Term
// order within a constraint does not affect the ingested matrix, so map
// iteration order is harmless.)
func (e *encoding) addFloor(coeffs map[int]float64, floor float64) {
	terms := make([]lp.Term, 0, len(coeffs))
	for oi, cf := range coeffs {
		terms = append(terms, lp.Term{Var: e.outputs[oi], Coeff: cf})
	}
	if len(terms) == 1 && terms[0].Coeff == 1 {
		y := terms[0].Var
		lo, hi := e.model.Bounds(y)
		e.model.SetBounds(y, math.Max(lo, floor), math.Max(hi, floor))
		return
	}
	e.model.AddConstraint(terms, lp.GE, floor, "")
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
		Effort:        res.Effort,
		Binaries:      len(e.binaries),
		StableNeurons: stable,
		HiddenNeurons: total,
	}
}

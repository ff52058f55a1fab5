// Package milp solves mixed-integer linear programs by branch-and-bound on
// the LP relaxation from package lp.
//
// The solver targets the network-verification MILPs in this repository:
// every integer variable is a 0/1 ReLU phase indicator, so branching is
// binary and big-M bound fixing (setting a binary's bounds to [0,0] or
// [1,1]) is the only node operation. Open nodes wait on a heap ordered by
// relaxation bound, and the search dives: a worker that branches a node
// goes straight on into the child the fractional value rounds to, while
// the sibling joins the heap; only when a dive ends — infeasible, integral
// or cut off by the incumbent — does the worker take the best open node.
// The proven bound is the minimum over everything still open, so it
// tightens monotonically all the same.
//
// The engine is parallel and warm-started: Options.Workers workers each
// own a model clone and a persistent lp.Solver, one node per worker is
// solved in synchronized batches, and every relaxation re-solves from the
// basis its worker's previous node left live — for a dive child, its own
// parent's, one bound fix away. No basis is stored on a node; the only
// copy ever made is a late worker's fork of worker 0's solver, so that
// only the root is solved cold. Batch-synchronous scheduling keeps the
// search deterministic for a fixed worker count: node counts, objectives
// and incumbents are reproducible run to run.
//
// Solves are context-aware and anytime: SolveCtx threads cancellation and
// deadlines from a context.Context down into every node's simplex pivot
// loop, an interrupted search still reports its incumbent and proven
// bound, and Options.Progress streams incumbent/bound/node events while
// the search runs.
package milp

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal within the gap tolerance.
	Optimal Status = iota
	// Infeasible means no integer-feasible point exists.
	Infeasible
	// Unbounded means the relaxation (and thus the MILP) is unbounded.
	Unbounded
	// TimeLimit means the context deadline elapsed; the incumbent (if any)
	// and the best bound are still reported — the anytime answer.
	TimeLimit
	// NodeLimit means the node budget was exhausted first.
	NodeLimit
	// Cancelled means the context was cancelled (not by deadline); like
	// TimeLimit, the incumbent and best bound so far are still reported.
	Cancelled
)

// String returns a readable status name.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case TimeLimit:
		return "time-limit"
	case NodeLimit:
		return "node-limit"
	case Cancelled:
		return "cancelled"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Event is a progress snapshot streamed to Options.Progress from the
// coordinator loop. Incumbent and Bound are in the model's own direction.
// For a fixed worker count the sequence of events (minus Elapsed) is
// deterministic: emission is keyed to node counts, not wall-clock time.
type Event struct {
	Nodes        int           // nodes explored so far
	Open         int           // open nodes on the queue
	HasIncumbent bool          // whether any integer-feasible point exists yet
	Incumbent    float64       // best integer-feasible objective (valid when HasIncumbent)
	Bound        float64       // best proven bound on the optimum
	Elapsed      time.Duration // wall-clock time since the solve started
}

// progressPeriod is the node interval between periodic progress events;
// incumbent improvements always emit immediately.
const progressPeriod = 64

// intTol is the integrality tolerance: an LP value within it of an
// integer counts as integral.
const intTol = 1e-6

// Options tune the branch-and-bound search.
//
// There is deliberately no TimeLimit here: deadlines and cancellation
// arrive through the context given to SolveCtx and are polled both in the
// coordinator loop and inside each node's simplex iterations, so a solve
// stops promptly even mid-LP and still reports its anytime incumbent/bound.
type Options struct {
	// MaxNodes bounds explored nodes; 0 means no limit.
	MaxNodes int
	// Gap is the relative optimality gap at which search stops; 0 means
	// prove optimality exactly (up to tolerances).
	Gap float64
	// Workers is the number of node solvers running concurrently:
	// 0 means GOMAXPROCS, 1 is the sequential deterministic path. For any
	// fixed value the search itself is deterministic (batch-synchronous
	// scheduling), so results are reproducible run to run.
	Workers int
	// Progress, when non-nil, receives streamed incumbent/bound/node events
	// from the coordinator loop: immediately on every incumbent improvement
	// and at least every progressPeriod nodes. The callback runs on the
	// coordinating goroutine and must not block.
	Progress func(Event)
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective (model direction); valid if HasSolution
	X         []float64 // incumbent point; valid if HasSolution
	Bound     float64   // best proven bound on the optimum (model direction)
	// HasSolution reports whether any integer-feasible point was found.
	HasSolution bool
	Nodes       int // branch-and-bound nodes explored
	LPPivots    int // total simplex iterations across all nodes
	// MaxDepth is the deepest explored node (the root is depth 0) and
	// OpenHighWater the most nodes ever open at once — on the heap or in a
	// worker's slot, the root included. Both are deterministic for a fixed
	// worker count.
	MaxDepth      int
	OpenHighWater int
	Elapsed       time.Duration // wall-clock solve time
	// LP sums the workers' solver counters: how the node relaxations were
	// solved (warm, cold and why, dual and primal pivots, certificates). It
	// covers every relaxation solved, including batch members whose results
	// an early stop discarded before they were counted in Nodes/LPPivots.
	LP lp.Stats
}

// Gap returns the relative incumbent/bound gap, or +Inf without an incumbent.
func (r *Result) Gap() float64 {
	if !r.HasSolution {
		return math.Inf(1)
	}
	denom := math.Max(1e-9, math.Abs(r.Objective))
	return math.Abs(r.Bound-r.Objective) / denom
}

// Problem couples an LP model with a set of integer-constrained variables.
type Problem struct {
	Model *lp.Model
	// Integers lists variable indices that must take integral values.
	// For this repository they are always 0/1 indicators.
	Integers []int
}

// node is a branch-and-bound node: a set of tightened bounds and the
// relaxation bound inherited from its parent (best-first key).
type node struct {
	fixes []fix // deduplicated: at most one entry per variable
	bound float64
	depth int
	seq   int64 // creation order; deterministic heap tie-break
}

type fix struct {
	v            int
	lower, upper float64
}

type nodeQueue []*node

func (q nodeQueue) Len() int { return len(q) }
func (q nodeQueue) Less(i, j int) bool {
	if q[i].bound != q[j].bound {
		return q[i].bound < q[j].bound
	}
	return q[i].seq < q[j].seq
}
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// worker owns one model clone and one persistent warm-started solver.
type worker struct {
	model   *lp.Model
	solver  *lp.Solver
	applied []fix // fixes currently applied to model, for cheap undo
}

// nodeResult carries one solved relaxation back to the coordinator.
type nodeResult struct {
	sol *lp.Solution
	err error
}

// solveNode applies the node's bound fixes to the worker's clone and solves
// the relaxation from the worker's live basis: the node's own parent when
// the worker dived into it, some other node of the same tree otherwise —
// for a forked worker's first node, the one worker 0 solved last.
func (w *worker) solveNode(nd *node, rootLo, rootHi []float64, lpOpts lp.Options) nodeResult {
	for _, f := range w.applied {
		w.model.SetBounds(f.v, rootLo[f.v], rootHi[f.v])
	}
	for _, f := range nd.fixes {
		w.model.SetBounds(f.v, f.lower, f.upper)
	}
	w.applied = nd.fixes
	sol, err := w.solver.Solve(lpOpts)
	return nodeResult{sol: sol, err: err}
}

// ctxStatus maps a context error to the solve status it terminates with.
func ctxStatus(err error) Status {
	if err == context.DeadlineExceeded {
		return TimeLimit
	}
	return Cancelled
}

// SolveCtx runs branch-and-bound under a context: a deadline on ctx bounds
// wall-clock time (the former TimeLimit option) and cancelling ctx stops
// the search. Both are polled in the coordinator loop and inside every
// node's simplex iterations, so even a single long LP solve is interrupted
// promptly. An interrupted solve is not wasted: the result still carries
// the best incumbent and the proven bound at the moment of interruption.
// The problem's model is not mutated.
func SolveCtx(ctx context.Context, p Problem, opts Options) (*Result, error) {
	start := time.Now()
	nWorkers := opts.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	var lpOpts lp.Options
	if ctx.Done() != nil {
		// Reach into each node's pivot loop: the solve must notice a
		// cancelled or expired context mid-LP, not at the next batch.
		lpOpts.Cancel = func() bool { return ctx.Err() != nil }
	}

	maximize := p.Model.Maximizing()
	// Internally bounds are tracked in minimize direction: lower bounds on
	// the optimum come from relaxations.
	toMin := func(v float64) float64 {
		if maximize {
			return -v
		}
		return v
	}

	res := &Result{Bound: math.Inf(-1), OpenHighWater: 1}
	if maximize {
		res.Bound = math.Inf(1)
	}
	bestMin := math.Inf(1) // incumbent objective, minimize direction
	intSet := make(map[int]bool, len(p.Integers))
	for _, v := range p.Integers {
		intSet[v] = true
	}

	// Root bounds, for undoing a node's fixes on a worker clone.
	nVars := p.Model.NumVariables()
	rootLo := make([]float64, nVars)
	rootHi := make([]float64, nVars)
	for v := 0; v < nVars; v++ {
		rootLo[v], rootHi[v] = p.Model.Bounds(v)
	}

	// Workers are created lazily: batches start at size 1 and are bounded
	// by the open-node count, so a tree that dies early never pays for the
	// full set of model clones and dense tableaus. Worker 0 solves the root
	// cold; every later worker forks worker 0's solver, so its first node
	// is a warm re-solve from a basis of the same tree. Workers are only
	// created between batches, when worker 0 is at rest in the state its
	// last batch left — a function of the search so far, not of timing.
	workers := make([]*worker, nWorkers)
	getWorker := func(i int) *worker {
		if workers[i] == nil {
			m := p.Model.Clone()
			if i == 0 {
				workers[i] = &worker{model: m, solver: lp.NewSolver(m)}
			} else {
				workers[i] = &worker{model: m, solver: workers[0].solver.Fork(m)}
			}
		}
		return workers[i]
	}

	var seq int64
	queue := &nodeQueue{{bound: math.Inf(-1)}}
	heap.Init(queue)

	// droppedBound tracks the best (minimize-direction) bound over nodes
	// that were abandoned without resolution — LP iteration limits, or a
	// non-root unbounded relaxation. Their subtrees are unexplored, so the
	// proven bound and the Optimal claim must account for them.
	droppedBound := math.Inf(1)

	// slots[i] is the node worker i solves in the coming batch: the dive
	// child of the node it branched last, or whatever the heap hands it.
	slots := make([]*node, nWorkers)

	// openBound is the best (minimize-direction) bound over unexplored
	// work: open queue nodes, nodes waiting in slots, and dropped subtrees.
	openBound := func() float64 {
		b := droppedBound
		if queue.Len() > 0 {
			b = math.Min(b, (*queue)[0].bound)
		}
		for _, nd := range slots {
			if nd != nil {
				b = math.Min(b, nd.bound)
			}
		}
		return b
	}

	// openCount is the number of unexplored nodes: on the heap or in a slot.
	openCount := func() int {
		n := queue.Len()
		for _, nd := range slots {
			if nd != nil {
				n++
			}
		}
		return n
	}

	finish := func(st Status) (*Result, error) {
		res.Elapsed = time.Since(start)
		res.Status = st
		for _, w := range workers {
			if w != nil {
				res.LP.Add(w.solver.Stats())
			}
		}
		// Best bound: min over incumbent, open nodes, and dropped nodes.
		b := math.Min(bestMin, openBound())
		if st == Optimal && res.HasSolution {
			b = bestMin
		}
		if maximize {
			res.Bound = -b
		} else {
			res.Bound = b
		}
		return res, nil
	}

	// progress streams an Event to the caller: forced on incumbent
	// improvements, otherwise at most every progressPeriod nodes. Keying
	// emission to node counts keeps the event sequence deterministic for a
	// fixed worker count.
	lastEmit := 0
	progress := func(force bool) {
		if opts.Progress == nil || (!force && res.Nodes-lastEmit < progressPeriod) {
			return
		}
		lastEmit = res.Nodes
		ev := Event{
			Nodes:        res.Nodes,
			Open:         openCount(),
			HasIncumbent: res.HasSolution,
			Elapsed:      time.Since(start),
		}
		if res.HasSolution {
			ev.Incumbent = res.Objective
		}
		ev.Bound = math.Min(bestMin, openBound())
		if maximize {
			ev.Bound = -ev.Bound
		}
		opts.Progress(ev)
	}

	prunable := func(nd *node) bool { return res.HasSolution && nd.bound >= bestMin-1e-9 }

	results := make([]nodeResult, nWorkers)
	for {
		if err := ctx.Err(); err != nil {
			return finish(ctxStatus(err))
		}
		budget := nWorkers
		if opts.MaxNodes > 0 && opts.MaxNodes-res.Nodes < budget {
			budget = opts.MaxNodes - res.Nodes
		}

		// Form the batch. A slot keeps the dive child its worker left in
		// it unless the incumbent has since cut that child off; every
		// other slot takes the best open node, dropping prunable ones.
		filled := 0
		for i, nd := range slots {
			if nd != nil && prunable(nd) {
				slots[i] = nil
			}
			if filled >= budget {
				if slots[i] != nil { // out of node budget: the child waits on the heap
					heap.Push(queue, slots[i])
					slots[i] = nil
				}
				continue
			}
			for slots[i] == nil && queue.Len() > 0 {
				if nd := heap.Pop(queue).(*node); !prunable(nd) {
					slots[i] = nd
				}
			}
			if slots[i] != nil {
				filled++
			}
		}
		if filled == 0 {
			if queue.Len() > 0 {
				return finish(NodeLimit)
			}
			break
		}

		// Solve the batch: slot i on worker i. Workers share nothing, so
		// results are independent of goroutine scheduling. Every worker the
		// batch needs exists before any of them starts (a fork reads worker
		// 0), and the coordinator solves the first filled slot itself rather
		// than park while a goroutine does.
		first := -1
		for i, nd := range slots {
			if nd != nil {
				getWorker(i)
				if first < 0 {
					first = i
				}
			}
		}
		var wg sync.WaitGroup
		for i, nd := range slots {
			if nd == nil || i == first {
				continue
			}
			wg.Add(1)
			go func(i int, nd *node) {
				defer wg.Done()
				results[i] = workers[i].solveNode(nd, rootLo, rootHi, lpOpts)
			}(i, nd)
		}
		results[first] = workers[first].solveNode(slots[first], rootLo, rootHi, lpOpts)
		wg.Wait()

		// Process results in slot order — the deterministic part. A slot is
		// emptied as its node is processed, so if the search ends mid-batch
		// the members not yet reached are still in slots, where openBound
		// sees them and the reported Bound stays sound. Their already-
		// computed LP results are deliberately discarded: finish() ends
		// the solve, so only the Bound matters, and counting unprocessed
		// nodes in Nodes/LPPivots would misstate exploration.
		for i, nd := range slots {
			if nd == nil {
				continue
			}
			slots[i] = nil
			r := results[i]
			if r.err != nil {
				return nil, r.err
			}
			sol := r.sol
			res.Nodes++
			res.LPPivots += sol.Iterations
			res.MaxDepth = max(res.MaxDepth, nd.depth)

			switch sol.Status {
			case lp.Infeasible:
				continue
			case lp.Unbounded:
				if nd.depth == 0 {
					return finish(Unbounded)
				}
				// A bounded root cannot have an unbounded child; treat it
				// as unresolved rather than cut off.
				droppedBound = math.Min(droppedBound, nd.bound)
				continue
			case lp.IterationLimit:
				// Cannot trust the node: its subtree stays unexplored, so
				// its inherited bound caps what the search can claim. A
				// cancelled or expired context surfaces here too (the pivot
				// loop stops with IterationLimit); report the interruption
				// rather than a node-limit. Otherwise stop outright if there
				// is no incumbent yet.
				droppedBound = math.Min(droppedBound, nd.bound)
				if err := ctx.Err(); err != nil {
					return finish(ctxStatus(err))
				}
				if !res.HasSolution {
					return finish(NodeLimit)
				}
				continue
			}
			nodeBound := toMin(sol.Objective)
			if res.HasSolution && nodeBound >= bestMin-1e-9 {
				continue
			}

			// Find the most fractional integer variable.
			branchVar, worst := -1, intTol
			for _, v := range p.Integers {
				f := sol.X[v]
				frac := math.Abs(f - math.Round(f))
				if frac > worst {
					branchVar, worst = v, frac
				}
			}
			if branchVar < 0 {
				// Integer feasible: candidate incumbent.
				if nodeBound < bestMin {
					bestMin = nodeBound
					res.HasSolution = true
					res.X = roundIntegers(sol.X, intSet)
					res.Objective = sol.Objective
					progress(true)
					if opts.Gap > 0 {
						gap := math.Abs(bestMin-math.Min(openBound(), nodeBound)) / math.Max(1e-9, math.Abs(bestMin))
						if gap <= opts.Gap {
							return finish(Optimal)
						}
					}
				}
				continue
			}

			// Branch on floor/ceil of the fractional value. Child bounds
			// intersect whatever an ancestor already imposed on this
			// variable; fixes are deduplicated so each variable carries at
			// most one entry regardless of how often it is re-branched.
			val := sol.X[branchVar]
			effLo, effHi := rootLo[branchVar], rootHi[branchVar]
			for _, f := range nd.fixes {
				if f.v == branchVar {
					effLo, effHi = f.lower, f.upper
				}
			}
			floorFix := fix{branchVar, effLo, math.Max(effLo, math.Floor(val))}
			ceilFix := fix{branchVar, math.Min(effHi, math.Ceil(val)), effHi}
			down := &node{
				fixes: childFixes(nd.fixes, floorFix), bound: nodeBound,
				depth: nd.depth + 1, seq: nextSeq(&seq),
			}
			up := &node{
				fixes: childFixes(nd.fixes, ceilFix), bound: nodeBound,
				depth: nd.depth + 1, seq: nextSeq(&seq),
			}
			// Dive: this worker's basis is the children's parent basis, one
			// bound fix away from either child, so it continues into the
			// child the fractional value rounds to; the sibling waits on
			// the heap for whichever slot frees up.
			dive, sibling := down, up
			if val-math.Floor(val) >= 0.5 {
				dive, sibling = up, down
			}
			slots[i] = dive
			heap.Push(queue, sibling)
			res.OpenHighWater = max(res.OpenHighWater, openCount())
		}
		progress(false)
	}

	if res.HasSolution {
		if droppedBound < bestMin-1e-9 {
			// An abandoned subtree could still beat the incumbent: the
			// incumbent stands but optimality is not proven.
			return finish(NodeLimit)
		}
		return finish(Optimal)
	}
	if !math.IsInf(droppedBound, 1) {
		return finish(NodeLimit) // dropped subtrees forbid an infeasibility claim
	}
	return finish(Infeasible)
}

func nextSeq(seq *int64) int64 {
	*seq++
	return *seq
}

// childFixes extends a parent's fix set with one new fix, replacing any
// earlier fix of the same variable (the new fix already carries the
// intersected bounds). Keeping fixes deduplicated makes node bookkeeping
// O(depth-distinct-variables) instead of O(depth) per node.
func childFixes(parent []fix, nf fix) []fix {
	out := make([]fix, 0, len(parent)+1)
	for _, f := range parent {
		if f.v != nf.v {
			out = append(out, f)
		}
	}
	return append(out, nf)
}

// roundIntegers snaps integer variables of x to the nearest integer.
func roundIntegers(x []float64, intSet map[int]bool) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for v := range intSet {
		out[v] = math.Round(out[v])
	}
	return out
}

// SortedIntegers returns the integer variable indices in ascending order;
// useful for deterministic reporting.
func (p Problem) SortedIntegers() []int {
	out := append([]int(nil), p.Integers...)
	sort.Ints(out)
	return out
}

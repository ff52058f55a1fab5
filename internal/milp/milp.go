// Package milp solves mixed-integer linear programs by branch-and-bound on
// the LP relaxation from package lp.
//
// The solver targets the network-verification MILPs in this repository:
// every integer variable is a 0/1 ReLU phase indicator, so branching is
// binary and big-M bound fixing (setting a binary's bounds to [0,0] or
// [1,1]) is the only node operation. Open nodes are ordered by relaxation
// bound, and the search dives: a worker that branches a node goes straight
// on into the child the fractional value rounds to, while the sibling
// waits; only when a dive ends — infeasible, integral or cut off by the
// incumbent — does the worker take the best open node it holds. The proven
// bound is the minimum over everything still open, so it tightens
// monotonically all the same. An optional primal heuristic
// (Options.Heuristic) turns fractional LP points into incumbents, and an
// optional score (Options.Score) picks which fractional integer a node
// branches on.
//
// The engine is parallel and warm-started: Options.Workers workers each
// own a model clone and a persistent lp.Solver, and every relaxation
// re-solves from the basis its worker's previous node left live — for a
// dive child, its own parent's, one bound fix away. No basis is stored on a
// node; the only copy ever made is a late worker's fork of worker 0's
// solver, so that only the root is solved cold. The search runs in epochs:
// at a barrier the coordinator hands each worker up to epochHandout of the
// best open nodes, round-robin; each worker then solves up to epochNodes
// nodes on its own — its dive child first, then, whenever a dive ends and
// one of its handed nodes is left, the best of those and the siblings it
// made — and returns what is still open. The coordinator merges the
// returns in worker order and numbers the new nodes only then, so for a
// fixed worker count the search is a pure function of the problem: node
// counts, objectives and incumbents are reproducible run to run. At one
// worker it is the sequential best-first diving search.
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
	"slices"
	"time"

	"repro/internal/lp"
)

// Status reports the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// Optimal means the incumbent is proven optimal (up to tolerances).
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
// coordinator at a barrier. Incumbent and Bound are in the model's own
// direction. For a fixed worker count the sequence of events (minus
// Elapsed) is deterministic: emission is keyed to node counts, not
// wall-clock time.
type Event struct {
	Nodes        int           // nodes explored so far
	Open         int           // open nodes
	HasIncumbent bool          // whether any incumbent exists yet
	Incumbent    float64       // best incumbent objective (valid when HasIncumbent)
	Bound        float64       // best proven bound on the optimum
	Elapsed      time.Duration // wall-clock time since the solve started
}

// progressPeriod is the node interval between periodic progress events;
// incumbent improvements always emit at the barrier that merges them.
const progressPeriod = 64

// intTol is the integrality tolerance: an LP value within it of an
// integer counts as integral.
const intTol = 1e-6

// epochNodes is the most nodes one worker solves between two barriers, and
// epochHandout the most open nodes the coordinator hands one worker at a
// barrier. A longer epoch waits less often on its slowest worker, whose
// lag grows only as the root of the epoch's length; over 16 table2_cold
// searches two workers explored the same node total as one at every size
// tried, 8 to 32 (DESIGN.md "Scheduling").
const (
	epochNodes   = 24
	epochHandout = 8
)

// Options tune the branch-and-bound search.
//
// There is deliberately no TimeLimit here: deadlines and cancellation
// arrive through the context given to SolveCtx and are polled before every
// node and inside each node's simplex iterations, so a solve stops promptly
// even mid-LP and still reports its anytime incumbent/bound.
type Options struct {
	// MaxNodes bounds explored nodes; 0 means no limit.
	MaxNodes int
	// Workers is the number of node solvers running concurrently:
	// 0 means GOMAXPROCS, 1 is the sequential path. Workers run in epochs
	// of up to epochNodes nodes between barriers, and for any fixed value
	// the search itself is deterministic, so results are reproducible run
	// to run.
	Workers int
	// Progress, when non-nil, receives streamed incumbent/bound/node events
	// from the coordinator: at the barrier after every incumbent
	// improvement, and at the first barrier progressPeriod nodes after the
	// last event. The callback runs on the coordinating goroutine and must
	// not block.
	Progress func(Event)
	// Heuristic, when non-nil, is the primal heuristic. Every fractional
	// node's LP point x is offered to it, on the goroutine that solved the
	// node, before the node is branched. It writes the point it vouches for
	// into point (as long as x) and returns that point's objective in the
	// model's direction; ok false declines. The caller vouches that the
	// MILP's optimum is at least as good as obj. A value better than the
	// incumbent becomes the incumbent, a copy of point its X, and it may
	// prune the node at once. Workers call it concurrently, and it must not
	// keep x or point.
	Heuristic func(x, point []float64) (obj float64, ok bool)
	// Score, when non-nil, chooses the branching variable: among the
	// integers fractional beyond intTol at a node's LP point x, the search
	// branches on Problem.Integers[i] for the i with the largest
	// Score(x, i), the lowest such i on a tie. It is called only for
	// fractional integers. Nil branches on the most fractional one. Workers
	// call it concurrently, and it must not keep x.
	Score func(x []float64, i int) float64
}

// Result is the outcome of a MILP solve.
type Result struct {
	Status    Status
	Objective float64 // incumbent objective (model direction); valid if HasSolution
	// X is the incumbent: an integral LP point, or the point the heuristic
	// offered, which need not be integral. Valid if HasSolution.
	X     []float64
	Bound float64 // best proven bound on the optimum (model direction)
	// HasSolution reports whether any incumbent was found.
	HasSolution bool
	Elapsed     time.Duration // wall-clock solve time
	Effort
}

// Effort is the work one or more searches took: the one record a search's
// cost travels in, from SolveCtx to every caller's account of it. Every
// field is deterministic for a fixed worker count.
type Effort struct {
	// Solves counts branch-and-bound searches: 1 for one SolveCtx.
	Solves   int
	Nodes    int // branch-and-bound nodes explored
	LPPivots int // total simplex iterations across all nodes
	// MaxDepth is the deepest explored node (the root is depth 0) and
	// OpenHighWater the most nodes open at a barrier — on the heap or a
	// worker's dive child, the root included.
	MaxDepth      int
	OpenHighWater int
	// FirstIncumbentNode is how many nodes the search had explored when its
	// first incumbent reached the coordinator, at the barrier that merged
	// it: exact at one worker, at most one epoch late at more (see
	// Options.Workers). 0 when the search found none.
	FirstIncumbentNode int
	// JumpNodes and JumpPivots count the nodes, and their pivots, that a
	// worker took from its open nodes (the root, a node handed out at a
	// barrier, or the best it held when a dive ended) rather than as the
	// dive child of the node it solved last, one bound fix from its basis.
	// The dive children are the rest: Nodes-JumpNodes, LPPivots-JumpPivots.
	JumpNodes, JumpPivots int
	// LP sums the workers' solver counters: how the node relaxations were
	// solved (warm, cold and why, dual and primal pivots, certificates). It
	// covers every relaxation solved, including one an interruption cut
	// short or a failing node's.
	LP lp.Stats
}

// Add folds the effort of more searches into e: work (Solves, Nodes,
// LPPivots, JumpNodes, JumpPivots, LP) is summed, tree shape (MaxDepth,
// OpenHighWater, FirstIncumbentNode) is the largest seen.
func (e *Effort) Add(o Effort) {
	e.Solves += o.Solves
	e.Nodes += o.Nodes
	e.LPPivots += o.LPPivots
	e.JumpNodes, e.JumpPivots = e.JumpNodes+o.JumpNodes, e.JumpPivots+o.JumpPivots
	e.LP.Add(o.LP)
	e.MaxDepth = max(e.MaxDepth, o.MaxDepth)
	e.OpenHighWater = max(e.OpenHighWater, o.OpenHighWater)
	e.FirstIncumbentNode = max(e.FirstIncumbentNode, o.FirstIncumbentNode)
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
	// seq is the creation order, the deterministic heap tie-break. A node
	// made during an epoch carries a number provisional to its worker until
	// the merge renumbers it.
	seq int64
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

// tree is the part of a solve every worker reads and none writes.
type tree struct {
	ctx            context.Context
	integers       []int
	rootLo, rootHi []float64 // root bounds, for undoing a node's fixes
	lpOpts         lp.Options
	maximize       bool
	heuristic      func(x, point []float64) (float64, bool)
	score          func(x []float64, i int) float64
}

// toMin maps a model-direction objective to the minimize direction the
// search tracks bounds in: lower bounds on the optimum come from
// relaxations.
func (t *tree) toMin(v float64) float64 {
	if t.maximize {
		return -v
	}
	return v
}

// epoch is one worker's share of the search between two barriers. The
// coordinator fills the inputs at a barrier; the worker runs it and leaves
// its outcome in the same struct, whose buffers are reused epoch to epoch.
type epoch struct {
	// Inputs.
	open    nodeQueue // the handed-out nodes, then the siblings made
	handed  int       // handed-out nodes still in open
	taken   int       // handed-out nodes popped so far
	budget  int       // most nodes to solve
	base    int64     // the seq counter at the barrier: handed nodes are ≤ it
	bestMin float64   // the incumbent in minimize direction, as the barrier knew it
	hasInc  bool

	// Outcome: open (with the worker's dive child) holds what is still
	// open, and created every node made, in order, for the merge to number.
	created       []*node
	nodes, pivots int
	maxDepth      int
	dropped       float64   // best bound over subtrees abandoned unresolved
	improved      bool      // whether bestMin, x and objective are the worker's own
	x             []float64 // the worker's incumbent point
	objective     float64   // and its objective, model direction
	stop          Status    // why the worker stopped the search, if stopped
	stopped       bool
	err           error

	// jumps counts the nodes taken from open rather than as a dive
	// child, and jumpPivots their pivots.
	jumps, jumpPivots int
}

// cutOff reports whether the worker's incumbent prunes a subtree whose
// relaxation bound (minimize direction) is bound.
func (ep *epoch) cutOff(bound float64) bool { return ep.hasInc && bound >= ep.bestMin-1e-9 }

// worker owns one model clone and one persistent warm-started solver.
// Worker 0 runs its epochs on the coordinator; every other worker runs
// each epoch on a goroutine started for that epoch.
type worker struct {
	id      int // its index: worker 0 runs on the coordinator
	model   *lp.Model
	solver  *lp.Solver
	applied []fix     // fixes currently applied to model, for cheap undo
	point   []float64 // the heuristic's output buffer
	// dive is the child of the node the worker branched last, which it
	// solves first in its next epoch; between epochs it is open.
	dive *node

	ep epoch
}

// begin readies the worker's epoch at a barrier: empty, with the barrier's
// incumbent. The coordinator then hands out nodes.
func (w *worker) begin(budget int, base int64, bestMin float64, hasInc bool) {
	ep := &w.ep
	clear(ep.open)
	clear(ep.created)
	*ep = epoch{
		open: ep.open[:0], created: ep.created[:0],
		budget: budget, base: base, bestMin: bestMin, hasInc: hasInc,
		dropped: math.Inf(1),
	}
}

// runEpoch solves the worker's epoch: its dive child first, then, whenever
// a dive ends, the best open node it holds, for as long as one of the
// nodes it was handed is still open — so that every node it takes is one
// the sequential search would take next — and until the budget is spent,
// the search stops, or its first incumbent is found (which every worker
// should prune with from the next epoch on).
func (w *worker) runEpoch(t *tree) {
	ep := &w.ep
	firstInc := !ep.hasInc
	for ep.nodes < ep.budget {
		if err := t.ctx.Err(); err != nil {
			ep.stop, ep.stopped = ctxStatus(err), true
			return
		}
		nd := w.dive
		w.dive = nil
		jump := nd == nil
		for nd == nil && ep.handed > 0 {
			c := heap.Pop(&ep.open).(*node)
			if c.seq <= ep.base {
				ep.handed--
				if testHandoutHook != nil {
					testHandoutHook(w.id, ep.taken)
				}
				ep.taken++
			}
			if !ep.cutOff(c.bound) {
				nd = c
			}
		}
		if nd == nil {
			return
		}
		if ep.cutOff(nd.bound) {
			continue
		}
		sol, err := w.solveNode(nd, t)
		if err != nil {
			ep.err, ep.stopped = err, true
			return
		}
		ep.nodes++
		ep.pivots += sol.Iterations
		if jump {
			ep.jumps++
			ep.jumpPivots += sol.Iterations
		}
		ep.maxDepth = max(ep.maxDepth, nd.depth)
		if !w.process(nd, sol, t) {
			return
		}
		if firstInc && ep.hasInc {
			return
		}
	}
}

// process turns one solved relaxation into the search's next steps:
// pruning, an incumbent, or two children, the one to dive into left in
// w.dive. It reports false when the node stops the search.
func (w *worker) process(nd *node, sol *lp.Solution, t *tree) bool {
	ep := &w.ep
	switch sol.Status {
	case lp.Infeasible:
		return true
	case lp.Unbounded:
		if nd.depth == 0 {
			ep.stop, ep.stopped = Unbounded, true
			return false
		}
		// A bounded root cannot have an unbounded child; treat it as
		// unresolved rather than cut off.
		ep.dropped = math.Min(ep.dropped, nd.bound)
		return true
	case lp.IterationLimit:
		// Cannot trust the node: its subtree stays unexplored, so its
		// inherited bound caps what the search can claim. A cancelled or
		// expired context surfaces here too (the pivot loop stops with
		// IterationLimit); report the interruption rather than a
		// node-limit. Otherwise stop outright if there is no incumbent yet.
		ep.dropped = math.Min(ep.dropped, nd.bound)
		if err := t.ctx.Err(); err != nil {
			ep.stop, ep.stopped = ctxStatus(err), true
			return false
		}
		if !ep.hasInc {
			ep.stop, ep.stopped = NodeLimit, true
			return false
		}
		return true
	}
	nodeBound := t.toMin(sol.Objective)
	if ep.cutOff(nodeBound) {
		return true
	}

	branchVar := t.branchVar(sol.X)
	if branchVar < 0 {
		// Integer feasible: candidate incumbent.
		if nodeBound < ep.bestMin {
			w.incumbent(nodeBound, sol.Objective, roundIntegers(sol.X, t.integers))
		}
		return true
	}
	if t.heuristic != nil {
		if obj, ok := t.heuristic(sol.X, w.point); ok && t.toMin(obj) < ep.bestMin {
			w.incumbent(t.toMin(obj), obj, slices.Clone(w.point))
			if ep.cutOff(nodeBound) {
				return true
			}
		}
	}

	// Branch on floor/ceil of the fractional value. Child bounds intersect
	// whatever an ancestor already imposed on this variable; fixes are
	// deduplicated so each variable carries at most one entry regardless of
	// how often it is re-branched.
	val := sol.X[branchVar]
	effLo, effHi := t.rootLo[branchVar], t.rootHi[branchVar]
	for _, f := range nd.fixes {
		if f.v == branchVar {
			effLo, effHi = f.lower, f.upper
		}
	}
	floorFix := fix{branchVar, effLo, math.Max(effLo, math.Floor(val))}
	ceilFix := fix{branchVar, math.Min(effHi, math.Ceil(val)), effHi}
	seq := ep.base + int64(len(ep.created))
	down := &node{fixes: childFixes(nd.fixes, floorFix), bound: nodeBound, depth: nd.depth + 1, seq: seq + 1}
	up := &node{fixes: childFixes(nd.fixes, ceilFix), bound: nodeBound, depth: nd.depth + 1, seq: seq + 2}
	ep.created = append(ep.created, down, up)
	// Dive: this worker's basis is the children's parent basis, one bound
	// fix away from either child, so it continues into the child the
	// fractional value rounds to; the sibling waits.
	dive, sibling := down, up
	if val-math.Floor(val) >= 0.5 {
		dive, sibling = up, down
	}
	w.dive = dive
	heap.Push(&ep.open, sibling)
	return true
}

// branchVar returns the integer variable to branch on at LP point x: of
// those fractional beyond intTol, the one with the largest score, or the
// most fractional one without a score; the first in Problem.Integers order
// on a tie. -1 means x is integer feasible.
func (t *tree) branchVar(x []float64) int {
	branchVar, best := -1, intTol
	for i, v := range t.integers {
		frac := math.Abs(x[v] - math.Round(x[v]))
		if frac <= intTol {
			continue
		}
		key := frac
		if t.score != nil {
			key = t.score(x, i)
		}
		if branchVar < 0 || key > best {
			branchVar, best = v, key
		}
	}
	return branchVar
}

// incumbent records a better point found by the worker.
func (w *worker) incumbent(bestMin, objective float64, x []float64) {
	ep := &w.ep
	ep.bestMin, ep.objective, ep.x = bestMin, objective, x
	ep.hasInc, ep.improved = true, true
}

// solveNode applies the node's bound fixes to the worker's clone and solves
// the relaxation from the worker's live basis: the node's own parent when
// the worker dived into it, some other node of the same tree otherwise —
// for a forked worker's first node, the one worker 0 solved last.
func (w *worker) solveNode(nd *node, t *tree) (*lp.Solution, error) {
	for _, f := range w.applied {
		w.model.SetBounds(f.v, t.rootLo[f.v], t.rootHi[f.v])
	}
	for _, f := range nd.fixes {
		w.model.SetBounds(f.v, f.lower, f.upper)
	}
	w.applied = nd.fixes
	if testNodeHook != nil {
		if err := testNodeHook(nd); err != nil {
			return nil, err
		}
	}
	return w.solver.Solve(t.lpOpts)
}

// testNodeHook, set only by tests, runs before every node solve on the
// goroutine that solves it; an error it returns stands in for the LP's.
var testNodeHook func(nd *node) error

// testHandoutHook, set only by tests, runs whenever a worker takes one of
// the nodes it was handed, n counting from 0 within the epoch.
var testHandoutHook func(worker, n int)

// ctxStatus maps a context error to the solve status it terminates with.
func ctxStatus(err error) Status {
	if err == context.DeadlineExceeded {
		return TimeLimit
	}
	return Cancelled
}

// SolveCtx runs branch-and-bound under a context: a deadline on ctx bounds
// wall-clock time (the former TimeLimit option) and cancelling ctx stops
// the search. Both are polled before every node and inside every node's
// simplex iterations, so even a single long LP solve is interrupted
// promptly. An interrupted solve is not wasted: the result still carries
// the best incumbent and the proven bound at the moment of interruption.
// The problem's model is not mutated.
func SolveCtx(ctx context.Context, p Problem, opts Options) (*Result, error) {
	start := time.Now()
	nWorkers := opts.Workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	t := &tree{
		ctx:       ctx,
		integers:  p.Integers,
		maximize:  p.Model.Maximizing(),
		heuristic: opts.Heuristic,
		score:     opts.Score,
	}
	if ctx.Done() != nil {
		// Reach into each node's pivot loop: the solve must notice a
		// cancelled or expired context mid-LP, not at the next node.
		t.lpOpts.Cancel = func() bool { return ctx.Err() != nil }
	}
	nVars := p.Model.NumVariables()
	t.rootLo, t.rootHi = make([]float64, nVars), make([]float64, nVars)
	for v := 0; v < nVars; v++ {
		t.rootLo[v], t.rootHi[v] = p.Model.Bounds(v)
	}

	res := &Result{Bound: math.Inf(-1), Effort: Effort{Solves: 1, OpenHighWater: 1}}
	if t.maximize {
		res.Bound = math.Inf(1)
	}
	bestMin := math.Inf(1) // incumbent objective, minimize direction

	// Workers are created lazily, when a barrier first has work for them,
	// so a tree that dies early never pays for the full set of model clones
	// and dense tableaus. Worker 0 solves the root cold; every later worker
	// forks worker 0's solver, so its first node is a warm re-solve from a
	// basis of the same tree. Workers are only created at a barrier, when
	// worker 0 is at rest in the state its last epoch left — a function of
	// the search so far, not of timing.
	workers := make([]*worker, nWorkers)
	getWorker := func(i int) *worker {
		if workers[i] == nil {
			m := p.Model.Clone()
			w := &worker{id: i, model: m, point: make([]float64, nVars)}
			if i == 0 {
				w.solver = lp.NewSolver(m)
			} else {
				w.solver = workers[0].solver.Fork(m)
			}
			workers[i] = w
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

	// openBound is the best (minimize-direction) bound over unexplored
	// work: open queue nodes, the workers' dive children, and dropped
	// subtrees. It is read only at a barrier, once every epoch's open nodes
	// are merged back.
	openBound := func() float64 {
		b := droppedBound
		if queue.Len() > 0 {
			b = math.Min(b, (*queue)[0].bound)
		}
		for _, w := range workers {
			if w != nil && w.dive != nil {
				b = math.Min(b, w.dive.bound)
			}
		}
		return b
	}

	// openCount is the number of unexplored nodes: on the heap or a dive
	// child.
	openCount := func() int {
		n := queue.Len()
		for _, w := range workers {
			if w != nil && w.dive != nil {
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
		if t.maximize {
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
		if t.maximize {
			ev.Bound = -ev.Bound
		}
		opts.Progress(ev)
	}

	prunable := func(nd *node) bool { return res.HasSolution && nd.bound >= bestMin-1e-9 }
	budgets := make([]int, nWorkers)
	active := make([]*worker, 0, nWorkers)
	done := make(chan struct{}, nWorkers)

	for {
		if err := ctx.Err(); err != nil {
			return finish(ctxStatus(err))
		}

		// Split what is left of the node budget over the workers, so that
		// no epoch can take the search past MaxNodes. A worker keeps its
		// dive child unless the incumbent has since cut it off or the worker
		// has no budget left, in which case the child waits on the heap.
		// A worker runs this epoch if it has a dive child or is handed a
		// node; begin gives it its budget, and a budget of 0 marks a worker
		// idle until the next barrier.
		remaining := math.MaxInt
		if opts.MaxNodes > 0 {
			remaining = opts.MaxNodes - res.Nodes
		}
		for i, w := range workers {
			budgets[i] = epochNodes
			if remaining < nWorkers*epochNodes {
				budgets[i] = remaining / nWorkers
				if i < remaining%nWorkers {
					budgets[i]++
				}
			}
			if w == nil {
				continue
			}
			w.ep.budget = 0
			if nd := w.dive; nd != nil && (prunable(nd) || budgets[i] == 0) {
				w.dive = nil
				if !prunable(nd) {
					heap.Push(queue, nd)
				}
			}
			if w.dive != nil {
				w.begin(budgets[i], seq, bestMin, res.HasSolution)
			}
		}

		// Hand out the best open nodes round-robin, dropping prunable ones,
		// each worker taking at most epochHandout and never more than its
		// budget.
		for round := 0; round < epochHandout && queue.Len() > 0; round++ {
			for i := range workers {
				if budgets[i] <= round {
					continue
				}
				var nd *node
				for nd == nil && queue.Len() > 0 {
					if c := heap.Pop(queue).(*node); !prunable(c) {
						nd = c
					}
				}
				if nd == nil {
					break
				}
				w := getWorker(i)
				if w.ep.budget == 0 {
					w.begin(budgets[i], seq, bestMin, res.HasSolution)
				}
				heap.Push(&w.ep.open, nd)
				w.ep.handed++
			}
		}
		active = active[:0]
		for _, w := range workers {
			if w != nil && w.ep.budget > 0 {
				active = append(active, w)
			}
		}
		if len(active) == 0 {
			if queue.Len() > 0 {
				return finish(NodeLimit)
			}
			break
		}

		// Run the epoch: the coordinator runs the first active worker's
		// itself and every other one on a goroutine of its own, then waits
		// for all of them, so none outlives the barrier. Workers share only
		// the read-only tree, so what each returns is independent of
		// goroutine scheduling.
		for _, w := range active[1:] {
			go func() {
				w.runEpoch(t)
				done <- struct{}{}
			}()
		}
		active[0].runEpoch(t)
		for range active[1:] {
			<-done
		}

		// Merge in worker order — the deterministic part. Every worker's
		// open nodes go back before any stop is acted on, so the Bound an
		// interrupted search reports covers every node handed out.
		var stop *epoch
		improved := false
		for _, w := range active {
			ep := &w.ep
			res.Nodes += ep.nodes
			res.LPPivots += ep.pivots
			res.JumpNodes += ep.jumps
			res.JumpPivots += ep.jumpPivots
			res.MaxDepth = max(res.MaxDepth, ep.maxDepth)
			droppedBound = math.Min(droppedBound, ep.dropped)
			if ep.improved && ep.bestMin < bestMin {
				bestMin, res.Objective, res.X, res.HasSolution = ep.bestMin, ep.objective, ep.x, true
				improved = true
			}
			for _, nd := range ep.created {
				nd.seq = nextSeq(&seq)
			}
			for _, nd := range ep.open {
				heap.Push(queue, nd)
			}
			if ep.stopped && stop == nil {
				stop = ep
			}
		}
		res.OpenHighWater = max(res.OpenHighWater, openCount())
		if improved && res.FirstIncumbentNode == 0 {
			res.FirstIncumbentNode = res.Nodes // the first incumbent lands at this barrier
		}
		progress(improved)
		if stop != nil {
			if stop.err != nil {
				return nil, stop.err
			}
			return finish(stop.stop)
		}
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
func roundIntegers(x []float64, integers []int) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	for _, v := range integers {
		out[v] = math.Round(out[v])
	}
	return out
}

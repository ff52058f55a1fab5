package lp

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/linalg"
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	// Optimal means an optimal basic feasible solution was found.
	Optimal Status = iota
	// Infeasible means the constraints admit no point.
	Infeasible
	// Unbounded means the objective improves without limit.
	Unbounded
	// IterationLimit means the pivot budget was exhausted first.
	IterationLimit
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
	case IterationLimit:
		return "iteration-limit"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Solution is the result of a successful or unsuccessful solve.
type Solution struct {
	Status    Status
	Objective float64 // objective value in the model's own direction
	// X holds one value per model variable (meaningful when Optimal). It is
	// the solver's own buffer: valid until the next Solve on the Solver that
	// returned it, so a caller that keeps a point across solves copies it.
	X          []float64
	Iterations int // total simplex pivots across both phases
}

// Options tune the solver. The zero value selects sensible defaults.
type Options struct {
	// MaxIterations bounds total pivots; 0 means 400*(rows+cols)+20000.
	MaxIterations int
	// Tol is the feasibility/optimality tolerance; 0 means 1e-7.
	Tol float64
	// Cancel, when non-nil, is polled every cancelPeriod pivots; once it
	// reports true the solve stops and returns IterationLimit. This is how
	// context cancellation and deadlines reach into a running simplex
	// instead of waiting for the current solve to finish. A cancelled
	// answer is never trusted: callers treat IterationLimit as "unresolved".
	Cancel func() bool
}

// ErrBadModel is returned for structurally unusable models
// (e.g. a variable with lower > upper introduced via direct mutation).
var ErrBadModel = errors.New("lp: malformed model")

const (
	pivotTol      = 1e-9
	defaultTol    = 1e-7
	refreshPeriod = 512 // pivots between reduced-cost refreshes
	blandTrigger  = 4   // multiples of (m+n) before Bland's rule engages
	cancelPeriod  = 128 // pivots between Options.Cancel polls
)

type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	free
	basic
)

// tableau is the working state of a solve. Column layout:
// [0,nStruct) structural, [nStruct,nStruct+m) slacks,
// [nStruct+m, nTotal) artificials.
//
// width is the pricing/update extent: nTotal while phase-1 artificials are
// live, nStruct+m once they are retired. Columns at or beyond width are
// never priced and their tableau entries go stale; the artificials are
// pinned to [0,0] by then, so they can never re-enter the basis.
type tableau struct {
	m, nStruct, nTotal int
	width              int
	t                  [][]float64 // m × nTotal working tableau (B⁻¹A)
	backing            []float64   // t's backing storage, for fast cold resets
	lower, upper       []float64   // bounds per column
	cost               []float64   // current phase costs per column
	d                  []float64   // reduced costs per column
	x                  []float64   // current value per column
	status             []varStatus
	basis              []int     // column basic in each row
	rhsInv             []float64 // B⁻¹·b, maintained through pivots
	iters              int
	maxIters           int
	tol                float64
	cancel             func() bool // optional cooperative-cancellation poll
	stats              *Stats      // the owning Solver's effort counters
	cands              []ratioCand // dual ratio-test scratch, capacity nTotal
	// movable lists, ascending, the columns below width that are neither
	// basic nor fixed: the only columns a dual ratio test can admit. A dual
	// pass builds it once and swaps the two columns of each of its pivots.
	movable []int
	nonzero []int       // computeBasics scratch: nonbasic columns with x ≠ 0
	flips   []boundFlip // the current dual row's flips not yet applied to the other rows
	// Set only by tests. onPick sees every decision of the dual ratio test
	// before it is acted on: the violated row, which bound it violates, and
	// the column chosen to flip or enter (-1 at a dead end). refDual and
	// refBasics, when set, run in place of dualIterate and computeBasics:
	// the eager reference loops the lists must reproduce bit for bit.
	onPick    func(r int, below bool, col int)
	refDual   func() (dualOutcome, int)
	refBasics func()
}

// ratioCand is one admissible entering column of a violated row.
type ratioCand struct {
	col        int
	at         int     // col's position in movable
	ratio, abs float64 // |d_col|/|α_col| and |α_col|
	// prev is the candidate that was best when this one took over, -1 for
	// none: the selection's state just before it, so a flip that strikes
	// this candidate resumes the scan from its position.
	prev int
}

// boundFlip is a flipped column and how far it moved.
type boundFlip struct {
	col  int
	step float64
}

// cancelled polls the cancellation hook at most every cancelPeriod pivots.
func (tb *tableau) cancelled() bool {
	return tb.cancel != nil && tb.iters%cancelPeriod == 0 && tb.cancel()
}

// phase1Objective sums the absolute values of artificial variables.
func (tb *tableau) phase1Objective() float64 {
	var s float64
	for j := tb.nStruct + tb.m; j < tb.nTotal; j++ {
		s += math.Abs(tb.x[j])
	}
	return s
}

// retireArtificials pins artificial columns at zero and pivots basic
// artificials out of the basis where a usable pivot exists. A row whose
// artificial cannot be pivoted out is redundant and stays inert.
// Must run while width still covers the artificial columns.
func (tb *tableau) retireArtificials() {
	artStart := tb.nStruct + tb.m
	for j := artStart; j < tb.nTotal; j++ {
		tb.lower[j], tb.upper[j] = 0, 0
		if tb.status[j] != basic {
			tb.status[j] = atLower
			tb.x[j] = 0
		}
	}
	for r := 0; r < tb.m; r++ {
		if tb.basis[r] < artStart {
			continue
		}
		// Degenerate pivot onto any non-artificial column with a stable pivot.
		best, bestAbs := -1, pivotTol
		for j := 0; j < artStart; j++ {
			if tb.status[j] == basic {
				continue
			}
			if a := math.Abs(tb.t[r][j]); a > bestAbs {
				best, bestAbs = j, a
			}
		}
		if best >= 0 {
			art := tb.basis[r]
			tb.status[art] = atLower
			tb.x[art] = 0
			tb.pivot(r, best, tb.x[best])
		}
	}
}

// refreshReducedCosts recomputes d = c − cᵦᵀT from scratch.
func (tb *tableau) refreshReducedCosts() {
	copy(tb.d, tb.cost)
	for i := 0; i < tb.m; i++ {
		cb := tb.cost[tb.basis[i]]
		if cb == 0 {
			continue
		}
		linalg.Axpy(-cb, tb.t[i][:tb.width], tb.d[:tb.width])
	}
	for i := 0; i < tb.m; i++ {
		tb.d[tb.basis[i]] = 0
	}
}

// entering selects an entering column and its movement direction, or (-1, 0)
// at optimality. Dantzig pricing normally, Bland's rule when bland is set.
// The scan stops at width, so retired artificial columns are never priced.
func (tb *tableau) entering(bland bool) (col int, dir float64) {
	bestScore := tb.tol
	col = -1
	for j := 0; j < tb.width; j++ {
		if tb.status[j] == basic || tb.lower[j] == tb.upper[j] {
			continue // fixed columns can never move
		}
		rc := tb.d[j]
		var cand float64
		switch tb.status[j] {
		case atLower:
			if rc < -bestScore {
				cand = 1
			}
		case atUpper:
			if rc > bestScore {
				cand = -1
			}
		case free:
			if math.Abs(rc) > bestScore {
				cand = 1
				if rc > 0 {
					cand = -1
				}
			}
		}
		if cand != 0 {
			if bland {
				return j, cand
			}
			bestScore = math.Abs(rc)
			col, dir = j, cand
		}
	}
	return col, dir
}

// iterate runs primal pivots until optimality, unboundedness, or the
// iteration budget is exhausted.
func (tb *tableau) iterate() Status {
	blandAfter := blandTrigger * (tb.m + tb.nTotal)
	sinceRefresh := 0
	for stall := 0; ; tb.iters++ {
		if tb.iters >= tb.maxIters || tb.cancelled() {
			return IterationLimit
		}
		if sinceRefresh >= refreshPeriod {
			tb.refreshReducedCosts()
			sinceRefresh = 0
		}
		j, dir := tb.entering(stall > blandAfter)
		if j < 0 {
			return Optimal
		}

		// Ratio test: how far can x_j move along dir before a basic
		// variable (or x_j's own opposite bound) hits a bound?
		tMax := math.Inf(1)
		if !math.IsInf(tb.lower[j], -1) && !math.IsInf(tb.upper[j], 1) {
			tMax = tb.upper[j] - tb.lower[j]
		}
		leaveRow, leaveAtUpper := -1, false
		bestPivot := 0.0
		for i := 0; i < tb.m; i++ {
			a := tb.t[i][j]
			if math.Abs(a) < pivotTol {
				continue
			}
			delta := -dir * a // change of basic i per unit t
			bi := tb.basis[i]
			var limit float64
			var hitsUpper bool
			if delta > 0 {
				if math.IsInf(tb.upper[bi], 1) {
					continue
				}
				limit = (tb.upper[bi] - tb.x[bi]) / delta
				hitsUpper = true
			} else {
				if math.IsInf(tb.lower[bi], -1) {
					continue
				}
				limit = (tb.x[bi] - tb.lower[bi]) / (-delta)
			}
			if limit < 0 {
				limit = 0 // tolerate slight infeasibility from roundoff
			}
			// Prefer strictly smaller limits; on near-ties take the
			// largest pivot magnitude for numerical stability.
			if limit < tMax-1e-12 || (leaveRow >= 0 && limit <= tMax+1e-12 && math.Abs(a) > bestPivot) {
				tMax = math.Min(tMax, limit)
				leaveRow, leaveAtUpper = i, hitsUpper
				bestPivot = math.Abs(a)
			}
		}

		if math.IsInf(tMax, 1) {
			return Unbounded
		}
		if tMax <= 1e-12 {
			stall++
		} else {
			stall = 0
		}

		// Move the entering variable and every basic variable.
		tb.stats.PrimalPivots++
		step := dir * tMax
		tb.x[j] += step
		for i := 0; i < tb.m; i++ {
			if a := tb.t[i][j]; a != 0 {
				tb.x[tb.basis[i]] -= step * a
			}
		}

		if leaveRow < 0 {
			// Bound flip: x_j traversed to its opposite bound.
			if dir > 0 {
				tb.status[j] = atUpper
				tb.x[j] = tb.upper[j]
			} else {
				tb.status[j] = atLower
				tb.x[j] = tb.lower[j]
			}
			sinceRefresh++
			continue
		}

		// Snap the leaving variable exactly onto the bound it reached.
		leaving := tb.basis[leaveRow]
		if leaveAtUpper {
			tb.status[leaving] = atUpper
			tb.x[leaving] = tb.upper[leaving]
		} else {
			tb.status[leaving] = atLower
			tb.x[leaving] = tb.lower[leaving]
		}
		tb.pivot(leaveRow, j, tb.x[j])
		sinceRefresh++
	}
}

// pivot makes column j basic in row r, keeping its current value xj.
// Row operations stop at width; columns beyond it are stale by design. The
// row scale and the rank-1 update run through the linalg kernels, which
// round each product and each sum separately on every path — the bits of
// the scalar loops `row[k] *= inv` and `ti[k] -= f*row[k]`.
func (tb *tableau) pivot(r, j int, xj float64) {
	row := tb.t[r][:tb.width]
	inv := 1 / row[j]
	linalg.Scale(inv, row)
	row[j] = 1
	tb.rhsInv[r] *= inv
	for i, ti := range tb.t {
		if i == r {
			continue
		}
		f := ti[j]
		if f == 0 {
			continue
		}
		linalg.Axpy(-f, row, ti[:tb.width])
		ti[j] = 0
		tb.rhsInv[i] -= f * tb.rhsInv[r]
	}
	if f := tb.d[j]; f != 0 {
		linalg.Axpy(-f, row, tb.d[:tb.width])
	}
	tb.d[j] = 0
	tb.basis[r] = j
	tb.status[j] = basic
	tb.x[j] = xj
}

// computeBasics recomputes every basic variable's value from the invariant
// T·x = B⁻¹·b given the current nonbasic rest values. The nonbasic columns
// with a nonzero value are gathered once; each row then subtracts exactly
// the terms a full-width walk would, in the same column order.
func (tb *tableau) computeBasics() {
	if tb.refBasics != nil {
		tb.refBasics()
		return
	}
	nz := tb.nonzero[:0]
	for j := 0; j < tb.width; j++ {
		if tb.status[j] != basic && tb.x[j] != 0 {
			nz = append(nz, j)
		}
	}
	for i := 0; i < tb.m; i++ {
		v := tb.rhsInv[i]
		row := tb.t[i]
		for _, j := range nz {
			v -= row[j] * tb.x[j]
		}
		tb.x[tb.basis[i]] = v
	}
}

// violated reports whether column j's value lies outside its bounds beyond
// tolerance. It is the one feasibility test of the dual simplex — the same
// tol·(1+|bound|) mostInfeasibleRow ranks rows by — so a row the selection
// would not pick is never left "unresolved" over a last-bit residual.
func (tb *tableau) violated(j int) bool {
	v, lo, hi := tb.x[j], tb.lower[j], tb.upper[j]
	return v < lo-tb.tol*(1+math.Abs(lo)) || v > hi+tb.tol*(1+math.Abs(hi))
}

// firstInfeasibleRow returns the first row whose basic variable violates its
// bounds beyond tolerance, or -1 when the basis is primal feasible.
func (tb *tableau) firstInfeasibleRow() int {
	for i := 0; i < tb.m; i++ {
		if tb.violated(tb.basis[i]) {
			return i
		}
	}
	return -1
}

// mostInfeasibleRow returns the row whose basic variable violates its bounds
// the most, or -1 when the basis is primal feasible.
func (tb *tableau) mostInfeasibleRow() int {
	row, worst := -1, 0.0
	for i := 0; i < tb.m; i++ {
		bi := tb.basis[i]
		v := tb.x[bi]
		if d := (tb.lower[bi] - v) - tb.tol*(1+math.Abs(tb.lower[bi])); d > worst {
			row, worst = i, d
		}
		if d := (v - tb.upper[bi]) - tb.tol*(1+math.Abs(tb.upper[bi])); d > worst {
			row, worst = i, d
		}
	}
	return row
}

// dualFeasible reports whether the current reduced costs satisfy the
// optimality sign conventions — the precondition for dual pivoting. True
// whenever the basis was optimal for the same objective (the branch-and-
// bound child case: only bounds changed). The threshold is deliberately
// loose: the dual simplex is only a pivot rule here — optimality is
// re-certified by the primal polish afterwards — so near-feasible reduced
// costs (pricing leaves residuals up to tol, and a fresh refresh can push
// them slightly past it) just cost a few extra primal pivots, while
// rejecting them would force a full cold solve.
func (tb *tableau) dualFeasible() bool {
	slack := 10 * tb.tol
	for j := 0; j < tb.width; j++ {
		if tb.status[j] == basic || tb.lower[j] == tb.upper[j] {
			continue
		}
		switch tb.status[j] {
		case atLower:
			if tb.d[j] < -slack {
				return false
			}
		case atUpper:
			if tb.d[j] > slack {
				return false
			}
		case free:
			if math.Abs(tb.d[j]) > slack {
				return false
			}
		}
	}
	return true
}

// dualOutcome is how a dual simplex pass ended.
type dualOutcome int

const (
	// dualRestored: the basis is primal feasible; the primal polish takes over.
	dualRestored dualOutcome = iota
	// dualDeadEnd: a violated row has no admissible entering column — the
	// node is infeasible unless roundoff hid a column, which only a
	// certificate from pristine data can tell apart.
	dualDeadEnd
	// dualStalled: the step budget ran out.
	dualStalled
	// dualInterrupted: the pivot budget or the cancellation hook stopped it.
	dualInterrupted
)

// dualIterate runs bounded-variable dual simplex pivots until the basis is
// primal feasible, a row has no admissible entering column (the returned
// row; the caller asks for an infeasibility certificate), or a budget runs
// out. It requires (near-)dual-feasible reduced costs on entry; the caller
// re-polishes with primal pivots, so mild sign drift costs extra primal
// work, never correctness.
//
// The ratio test is the long-step variant: a min-ratio column whose own
// bound range cannot absorb the leaving variable's residual is flipped to
// its opposite bound — an O(m) value update instead of an O(m·n) pivot —
// and the test moves on to the next candidate. Without flips, big-M
// verification LPs (full of boxed indicator columns with narrow ranges)
// degenerate into long chains of full pivots.
//
// A row is scanned once. Until the row's pivot, nothing the scan reads
// changes except the flipped column's status: the row and the reduced
// costs move only on a pivot, bounds not at all, and a flip moves values,
// which the scan never looks at. The flipped column now rests on the bound
// the sign condition rejects, so the admissible set after a flip is the
// set before it minus that column, and every later decision of the row is
// taken over the surviving candidates — same comparison, same column
// order, hence the same column a full rescan would pick. Nor does the
// selection rescan the survivors: the candidates before the struck one,
// and the state the scan had reached there, are unchanged, so it resumes
// at the struck position.
//
// A flip updates its own row's basic value at once, since the row's next
// decision reads it, and leaves the other rows to settleRows, which runs
// before anything reads them: per row, the same updates in the same order
// as a walk down each flipped column would have made.
func (tb *tableau) dualIterate() (out dualOutcome, row int) {
	if tb.refDual != nil {
		return tb.refDual()
	}
	tb.movable = tb.movable[:0]
	for j := 0; j < tb.width; j++ {
		if tb.status[j] != basic && tb.lower[j] != tb.upper[j] {
			tb.movable = append(tb.movable, j)
		}
	}
	budget := 6*tb.m + 100 // dual steps, not counting flips
	for steps := 0; ; steps++ {
		if tb.iters >= tb.maxIters || tb.cancelled() {
			return dualInterrupted, -1
		}
		if steps > budget {
			return dualStalled, -1
		}
		r := tb.mostInfeasibleRow()
		if r < 0 {
			return dualRestored, -1
		}
		bi := tb.basis[r]
		below := tb.x[bi] < tb.lower[bi]
		var target float64
		var leaveAt varStatus
		if below {
			target, leaveAt = tb.lower[bi], atLower
		} else {
			target, leaveAt = tb.upper[bi], atUpper
		}
		row := tb.t[r]
		cands := tb.ratioCandidates(row, below)

		// Resolve row r: flip boxed min-ratio columns that cannot absorb
		// the residual, enter the first one that can. The row is resolved
		// once its basic variable is within tolerance of its bound, not
		// only when it sits on it exactly.
		k, bestRatio, bestAbs := -1, math.Inf(1), 0.0
		next := 0 // where the selection scan resumes
		for tb.violated(bi) {
			deltaB := target - tb.x[bi] // >0 when below, <0 when above

			// Smallest |d|/|α|, largest |α| on near-ties.
			for i := next; i < len(cands); i++ {
				if c := &cands[i]; c.ratio < bestRatio-1e-12 || (c.ratio <= bestRatio+1e-12 && c.abs > bestAbs) {
					c.prev = k
					k, bestRatio, bestAbs = i, c.ratio, c.abs
				}
			}
			next = len(cands)
			best := -1
			if k >= 0 {
				best = cands[k].col
			}
			if tb.onPick != nil {
				tb.onPick(r, below, best)
			}
			if best < 0 {
				tb.settleRows(r, -1, 0)
				return dualDeadEnd, r
			}

			deltaJ := deltaB / -row[best]
			rng := tb.upper[best] - tb.lower[best]
			if tb.status[best] != free && !math.IsInf(rng, 1) &&
				math.Abs(deltaB)-math.Abs(row[best])*rng > tb.tol*(1+math.Abs(target)) {
				// Bound flip: the column saturates and the row is still
				// violated. A column that would bring the row within
				// tolerance enters instead, even a hair past its own bound:
				// ending the row on a flip would leave the flipped columns
				// with reduced costs signed for the bound they left.
				var step float64
				if tb.status[best] == atLower {
					step = rng
					tb.status[best] = atUpper
					tb.x[best] = tb.upper[best]
				} else {
					step = -rng
					tb.status[best] = atLower
					tb.x[best] = tb.lower[best]
				}
				if a := row[best]; a != 0 {
					tb.x[bi] -= step * a
				}
				tb.flips = append(tb.flips, boundFlip{best, step})
				tb.stats.BoundFlips++
				// Strike the candidate and resume the scan where it stood,
				// with the best of the candidates before it.
				next, k = k, cands[k].prev
				bestRatio, bestAbs = math.Inf(1), 0.0
				if k >= 0 {
					bestRatio, bestAbs = cands[k].ratio, cands[k].abs
				}
				cands = append(cands[:next], cands[next+1:]...)
				continue
			}

			newXj := tb.x[best] + deltaJ
			tb.settleRows(r, best, deltaJ)
			tb.status[bi] = leaveAt
			tb.x[bi] = target
			tb.pivot(r, best, newXj)
			tb.swapMovable(bi, cands[k].at)
			tb.iters++
			tb.stats.DualPivots++
			break
		}
		tb.settleRows(r, -1, 0) // a row can end on a flip, within tolerance
	}
}

// settleRows applies the current row's pending flips to every other row,
// in flip order, then moves every basic variable — row r's included — by
// delta along column col (col < 0: no move), and clears the pending list.
func (tb *tableau) settleRows(r, col int, delta float64) {
	if len(tb.flips) == 0 && col < 0 {
		return
	}
	for i, ti := range tb.t {
		b := tb.basis[i]
		if i != r {
			for _, f := range tb.flips {
				if a := ti[f.col]; a != 0 {
					tb.x[b] -= f.step * a
				}
			}
		}
		if col >= 0 {
			if a := ti[col]; a != 0 {
				tb.x[b] -= delta * a
			}
		}
	}
	tb.flips = tb.flips[:0]
}

// swapMovable keeps the movable list in step with a dual pivot: the
// entering column, at position at, leaves it, and the leaving column joins
// it in column order unless it is fixed or beyond width.
func (tb *tableau) swapMovable(leaving, at int) {
	mv := tb.movable
	switch {
	case leaving >= tb.width || tb.lower[leaving] == tb.upper[leaving]:
		tb.movable = append(mv[:at], mv[at+1:]...)
	case leaving < mv[at]:
		q := sort.SearchInts(mv[:at], leaving)
		copy(mv[q+1:at+1], mv[q:at])
		mv[q] = leaving
	default:
		q := at + sort.SearchInts(mv[at+1:], leaving)
		copy(mv[at:q], mv[at+1:q+1])
		mv[q] = leaving
	}
}

// ratioCandidates lists, in column order, the columns admissible to enter
// for violated row `row`: movable, with a stable pivot, and resting where
// moving off their bound drives the basic variable toward the bound it
// violates (x_basic changes by −α_j·Δx_j; Δx_j ≥ 0 from atLower, ≤ 0 from
// atUpper, either sign when free). The list lives in the tableau's scratch
// and is valid until the next call.
func (tb *tableau) ratioCandidates(row []float64, below bool) []ratioCand {
	cands := tb.cands[:0]
	for at, j := range tb.movable {
		a := row[j]
		if math.Abs(a) < pivotTol {
			continue
		}
		switch tb.status[j] {
		case atLower:
			if (below && a >= 0) || (!below && a <= 0) {
				continue
			}
		case atUpper:
			if (below && a <= 0) || (!below && a >= 0) {
				continue
			}
		}
		cands = append(cands, ratioCand{col: j, at: at, ratio: math.Abs(tb.d[j]) / math.Abs(a), abs: math.Abs(a)})
	}
	return cands
}

package lp

import "math"

const (
	// installPivotTol rejects unstable pivots while factorizing a basis.
	installPivotTol = 1e-8
	// warmFeasGuard is the absolute feasibility error above which a warm
	// solve is distrusted and redone cold.
	warmFeasGuard = 1e-6
	// refactorPeriod bounds pivots accumulated on one tableau before the
	// solver refactorizes it from pristine data (full-tableau updates lose
	// accuracy with every pivot; a periodic rebuild resets the drift).
	refactorPeriod = 1024
)

// Solver is a persistent simplex engine bound to one Model. It allocates
// the tableau once and re-solves after bound or objective mutations by
// restarting from the previous basis instead of rebuilding everything:
//
//   - objective-only changes keep the basis primal feasible, so phase 1 is
//     skipped outright and phase 2 re-optimizes from the previous vertex
//     (the bound-tightening access pattern);
//   - bound changes under an unchanged objective leave the basis dual
//     feasible, so dual simplex pivots restore primal feasibility without
//     a phase-1 restart (the branch-and-bound access pattern, where
//     children differ by one binary bound fix); a child with no feasible
//     point is reported Infeasible warm, on a Farkas certificate computed
//     from the model's own constraint data, and the basis stays live;
//   - anything the warm path cannot certify degrades to a cold solve; the
//     warm machinery can cost time, never correctness.
//
// The bound model's structure — its variables and constraints — must not
// change between solves; bounds and objective coefficients may. Adding
// variables or constraints is detected and triggers a full rebuild.
// A Solver is not safe for concurrent use; give each goroutine its own
// Solver over its own Model clone.
type Solver struct {
	model *Model
	tb    *tableau

	origRHS []float64
	slackLo []float64
	slackHi []float64

	hasBasis       bool // tableau holds a consistent phase-2 state
	dirty          bool // working tableau differs from the pristine copy
	pivotsSinceRef int  // pivots since the last pristine (re)factorization

	stats Stats

	// Scratch, sized once per structure and reused by every solve.
	cert     []float64 // certificate: one coefficient per structural and slack column
	xOut     []float64 // Solution.X of the latest solve
	instCols []int     // refactorize: basic columns still to install
	rowFree  []bool    // refactorize: rows not yet claimed
}

// NewSolver builds a solver for the model. The model's constraint matrix is
// ingested once; subsequent Solve calls read only bounds and objective.
func NewSolver(m *Model) *Solver {
	s := &Solver{model: m}
	s.rebuild()
	return s
}

// Model returns the bound model, whose bounds/objective may be mutated
// between solves.
func (s *Solver) Model() *Model { return s.model }

// Invalidate discards the saved basis; the next solve starts cold.
func (s *Solver) Invalidate() { s.hasBasis = false }

// Stats returns the effort counters accumulated over the solver's life.
func (s *Solver) Stats() Stats { return s.stats }

// newTableau allocates zeroed working storage for rows constraints over
// nStruct structural columns (plus one slack and one artificial per row).
func newTableau(rows, nStruct int, stats *Stats) *tableau {
	nTotal := nStruct + 2*rows
	tb := &tableau{
		m:       rows,
		nStruct: nStruct,
		nTotal:  nTotal,
		width:   nTotal,
		t:       make([][]float64, rows),
		backing: make([]float64, rows*nTotal),
		lower:   make([]float64, nTotal),
		upper:   make([]float64, nTotal),
		cost:    make([]float64, nTotal),
		d:       make([]float64, nTotal),
		x:       make([]float64, nTotal),
		status:  make([]varStatus, nTotal),
		basis:   make([]int, rows),
		rhsInv:  make([]float64, rows),
		stats:   stats,
		cands:   make([]ratioCand, 0, nTotal),
	}
	backing := tb.backing
	for i := range tb.t {
		tb.t[i], backing = backing[:nTotal:nTotal], backing[nTotal:]
	}
	return tb
}

// allocScratch sizes the per-structure scratch buffers.
func (s *Solver) allocScratch() {
	nStruct, rows := s.tb.nStruct, s.tb.m
	s.cert = make([]float64, nStruct+rows)
	s.xOut = make([]float64, nStruct)
	s.instCols = make([]int, 0, rows)
	s.rowFree = make([]bool, rows)
}

// rebuild ingests the model structure into pristine tableau storage.
func (s *Solver) rebuild() {
	m := s.model
	rows := len(m.cons)
	s.tb = newTableau(rows, len(m.vars), &s.stats)
	s.allocScratch()
	s.origRHS = make([]float64, rows)
	s.slackLo = make([]float64, rows)
	s.slackHi = make([]float64, rows)
	for i, c := range m.cons {
		switch c.Sense {
		case LE:
			s.slackLo[i], s.slackHi[i] = 0, math.Inf(1)
		case GE:
			s.slackLo[i], s.slackHi[i] = math.Inf(-1), 0
		case EQ:
			s.slackLo[i], s.slackHi[i] = 0, 0
		}
		s.origRHS[i] = c.RHS
	}
	s.resetTableau()
	s.dirty = false
	s.hasBasis = false
	s.pivotsSinceRef = 0
}

// Fork returns a new solver over clone — a Clone of this solver's model, or
// any model of the same structure — that starts from a copy of this
// solver's live state: tableau, working bounds, statuses, basis. Its first
// Solve is then a warm re-solve under clone's bounds and objective, exactly
// the one this solver would perform, instead of a cold two-phase solve. The
// fork shares nothing mutable with its origin, its counters start at zero,
// and a solver with no live basis forks into a plain NewSolver(clone).
func (s *Solver) Fork(clone *Model) *Solver {
	src := s.tb
	if !s.hasBasis || len(clone.vars) != src.nStruct || len(clone.cons) != src.m {
		return NewSolver(clone)
	}
	f := &Solver{
		model: clone,
		// Fixed once ingested; rebuild replaces them, never writes them.
		origRHS: s.origRHS, slackLo: s.slackLo, slackHi: s.slackHi,
		hasBasis:       true,
		dirty:          true,
		pivotsSinceRef: s.pivotsSinceRef,
	}
	tb := newTableau(src.m, src.nStruct, &f.stats)
	tb.width = src.width
	copy(tb.backing, src.backing)
	copy(tb.lower, src.lower)
	copy(tb.upper, src.upper)
	copy(tb.cost, src.cost)
	copy(tb.d, src.d)
	copy(tb.x, src.x)
	copy(tb.status, src.status)
	copy(tb.basis, src.basis)
	copy(tb.rhsInv, src.rhsInv)
	f.tb = tb
	f.allocScratch()
	return f
}

// resetTableau restores the working tableau to pristine data — A rows,
// slack unit columns, zeroed artificials, original RHS — straight from the
// model's (immutable) constraint structure, so no pristine mirror copy of
// the dense tableau needs to be kept around.
func (s *Solver) resetTableau() {
	tb := s.tb
	for i := range tb.backing {
		tb.backing[i] = 0
	}
	for i, c := range s.model.cons {
		row := tb.t[i]
		for _, term := range c.Terms {
			row[term.Var] += term.Coeff
		}
		row[tb.nStruct+i] = 1
	}
	copy(tb.rhsInv, s.origRHS)
}

// Solve optimizes the model under its current bounds and objective,
// warm-starting from the previous basis when one is live. Any warm path
// that cannot be certified degrades to a cold solve, never to a wrong
// answer.
func (s *Solver) Solve(opts Options) (*Solution, error) {
	m := s.model
	for _, v := range m.vars {
		if v.Lower > v.Upper || math.IsNaN(v.Lower) || math.IsNaN(v.Upper) {
			return nil, ErrBadModel
		}
	}
	if len(m.vars) != s.tb.nStruct || len(m.cons) != s.tb.m {
		s.rebuild()
	}
	tb := s.tb
	tb.tol = opts.Tol
	if tb.tol <= 0 {
		tb.tol = defaultTol
	}
	tb.maxIters = opts.MaxIterations
	if tb.maxIters <= 0 {
		tb.maxIters = 400*(tb.m+tb.nTotal) + 20000
	}
	tb.cancel = opts.Cancel
	tb.iters = 0

	if s.hasBasis {
		if sol, ok := s.warmSolve(); ok {
			s.stats.WarmSolves++
			return sol, nil
		}
	}
	// Pivots a failed warm attempt spent stay in tb.iters: they were work.
	s.stats.ColdSolves++
	return s.coldSolve()
}

// loadPhase2Costs loads the model objective (in minimize direction).
func (s *Solver) loadPhase2Costs() {
	tb := s.tb
	for j := range tb.cost {
		tb.cost[j] = 0
	}
	sign := 1.0
	if s.model.maximize {
		sign = -1
	}
	for j, v := range s.model.vars {
		tb.cost[j] = sign * v.Obj
	}
}

// loadBounds refreshes working bounds: structural from the model, slacks
// from the ingested senses, artificials pinned to zero.
func (s *Solver) loadBounds() {
	tb := s.tb
	for j, v := range s.model.vars {
		tb.lower[j], tb.upper[j] = v.Lower, v.Upper
	}
	for i := 0; i < tb.m; i++ {
		tb.lower[tb.nStruct+i], tb.upper[tb.nStruct+i] = s.slackLo[i], s.slackHi[i]
	}
	for j := tb.nStruct + tb.m; j < tb.nTotal; j++ {
		tb.lower[j], tb.upper[j] = 0, 0
	}
}

// finishSolution assembles the caller-facing solution from tableau state.
// X is the solver's own buffer, overwritten by its next solve.
func (s *Solver) finishSolution(st Status) *Solution {
	tb := s.tb
	sol := &Solution{Status: st, Iterations: tb.iters}
	switch st {
	case Optimal, IterationLimit:
		sol.X = s.xOut
		copy(sol.X, tb.x[:tb.nStruct])
		sol.Objective = s.model.EvalObjective(sol.X)
	case Unbounded:
		// No finite solution to report.
	}
	return sol
}

// coldSolve rebuilds the working tableau from pristine data and runs the
// full two-phase simplex.
func (s *Solver) coldSolve() (*Solution, error) {
	tb := s.tb
	nStruct, rows := tb.nStruct, tb.m
	s.hasBasis = false
	startIters := tb.iters

	// A one-shot solve on a fresh solver skips the pristine rebuild; any
	// solver that has pivoted (or factorized) restores the tableau first.
	if s.dirty {
		s.resetTableau()
	}
	s.dirty = true
	tb.width = tb.nTotal
	for j := range tb.cost {
		tb.cost[j] = 0
	}
	s.loadBounds()

	// Rest every non-artificial at a finite bound (free vars at 0).
	for j := 0; j < nStruct+rows; j++ {
		switch {
		case !math.IsInf(tb.lower[j], -1):
			tb.status[j], tb.x[j] = atLower, tb.lower[j]
		case !math.IsInf(tb.upper[j], 1):
			tb.status[j], tb.x[j] = atUpper, tb.upper[j]
		default:
			tb.status[j], tb.x[j] = free, 0
		}
	}

	// Artificial variables absorb each row's residual and start basic.
	var phase1Needed bool
	for i := 0; i < rows; i++ {
		var lhs float64
		for j := 0; j < nStruct+rows; j++ {
			if tb.t[i][j] != 0 {
				lhs += tb.t[i][j] * tb.x[j]
			}
		}
		r := s.origRHS[i] - lhs
		art := nStruct + rows + i
		tb.t[i][art] = 1
		tb.basis[i] = art
		tb.status[art] = basic
		tb.x[art] = r
		if r >= 0 {
			tb.lower[art], tb.upper[art] = 0, math.Inf(1)
			tb.cost[art] = 1
		} else {
			tb.lower[art], tb.upper[art] = math.Inf(-1), 0
			tb.cost[art] = -1
		}
		if math.Abs(r) > tb.tol {
			phase1Needed = true
		}
	}

	// Phase 1: minimize signed artificial mass.
	if phase1Needed {
		tb.refreshReducedCosts()
		st := tb.iterate()
		if st == IterationLimit {
			return &Solution{Status: IterationLimit, Iterations: tb.iters}, nil
		}
		if tb.phase1Objective() > 10*tb.tol {
			return &Solution{Status: Infeasible, Iterations: tb.iters}, nil
		}
	}
	tb.retireArtificials()
	tb.width = nStruct + rows

	// Phase 2: the real objective.
	s.loadPhase2Costs()
	tb.refreshReducedCosts()
	st := tb.iterate()
	s.hasBasis = true
	s.pivotsSinceRef = tb.iters - startIters
	return s.finishSolution(st), nil
}

// warmSolve re-solves from the live basis: refresh bounds and costs,
// restore primal feasibility if a bound change broke it (dual simplex when
// the reduced costs allow, heuristic bound repair otherwise), then run
// phase 2 only. Returns ok=false when the warm path cannot certify a
// trustworthy answer; the caller then solves cold.
func (s *Solver) warmSolve() (*Solution, bool) {
	tb := s.tb
	m := s.model
	artStart := tb.nStruct + tb.m

	if s.pivotsSinceRef >= refactorPeriod {
		s.refactorize()
	}
	tb.width = artStart
	s.loadBounds()
	s.loadPhase2Costs()
	// Reduced costs depend only on the basis and objective, so compute them
	// before resting the nonbasic columns: a column whose bounds widened
	// (e.g. a released binary fix) is rested on the side its reduced cost
	// prefers, which preserves dual feasibility for the dual simplex below.
	tb.refreshReducedCosts()

	// Rest every nonbasic priced column on a bound valid under the new
	// bounds; free columns keep their value unless a bound now cuts it off.
	for j := 0; j < artStart; j++ {
		if tb.status[j] == basic {
			continue
		}
		lo, hi := tb.lower[j], tb.upper[j]
		switch tb.status[j] {
		case atLower, atUpper:
			switch {
			case !math.IsInf(lo, -1) && !math.IsInf(hi, 1):
				switch {
				case tb.d[j] > tb.tol:
					tb.status[j], tb.x[j] = atLower, lo
				case tb.d[j] < -tb.tol:
					tb.status[j], tb.x[j] = atUpper, hi
				case tb.status[j] == atUpper:
					tb.x[j] = hi
				default:
					tb.status[j], tb.x[j] = atLower, lo
				}
			case !math.IsInf(lo, -1):
				tb.status[j], tb.x[j] = atLower, lo
			case !math.IsInf(hi, 1):
				tb.status[j], tb.x[j] = atUpper, hi
			default:
				tb.status[j], tb.x[j] = free, 0
			}
		case free:
			if tb.x[j] < lo {
				tb.status[j], tb.x[j] = atLower, lo
			} else if tb.x[j] > hi {
				tb.status[j], tb.x[j] = atUpper, hi
			}
		}
	}
	for j := artStart; j < tb.nTotal; j++ {
		if tb.status[j] != basic {
			tb.status[j], tb.x[j] = atLower, 0
		}
	}

	tb.computeBasics()
	installIters := tb.iters // refactorization pivots, already in pivotsSinceRef

	if tb.firstInfeasibleRow() >= 0 {
		// A bound mutation broke primal feasibility. When the reduced costs
		// are still dual feasible — always true under an unchanged
		// objective, the branch-and-bound case — dual simplex restores
		// feasibility directly. Otherwise fall back to the heuristic bound
		// repair.
		if tb.dualFeasible() {
			switch out, r := tb.dualIterate(); out {
			case dualDeadEnd:
				if !s.provesInfeasible(r) {
					s.stats.CertFailed++
					s.stats.ColdDeadEnd++
					return nil, false
				}
				// Infeasible, with the basis left live: the next solve re-rests
				// the columns this row flipped and starts its dual pass here.
				s.stats.CertAccepted++
				s.pivotsSinceRef += tb.iters - installIters
				return &Solution{Status: Infeasible, Iterations: tb.iters}, true
			case dualStalled:
				s.stats.ColdStall++
				return nil, false
			case dualInterrupted:
				// No X: mid-pass the vertex is not primal feasible.
				s.pivotsSinceRef += tb.iters - installIters
				return &Solution{Status: IterationLimit, Iterations: tb.iters}, true
			}
		} else if !s.repairBasis() {
			s.stats.ColdDeadEnd++
			return nil, false
		}
	}

	st := tb.iterate()
	s.pivotsSinceRef += tb.iters - installIters
	if st == Unbounded {
		// Genuine unboundedness will be re-detected cold; a corrupted warm
		// state will not. Either way the cold answer is authoritative.
		s.stats.ColdUnbounded++
		return nil, false
	}
	sol := s.finishSolution(st)
	if st == Optimal && m.FeasibilityError(sol.X) > warmFeasGuard {
		s.stats.ColdFeasGuard++
		return nil, false
	}
	return sol, true
}

// impliedEquality combines the model's rows with the multipliers
// y = row r of B⁻¹ into one equality every feasible point satisfies:
// each row i reads aᵢ·x + sᵢ = bᵢ, so any y gives (yᵀA)·x + y·s = yᵀb.
// y is read from the slack block of tableau row r and entries below the
// drop tolerance are zeroed: a cleaned y still yields a valid equality, so
// tableau drift can weaken what the equality proves but cannot make it
// false. The coefficients c over [structural | slack] columns (valid until
// the next call) and β are formed from the model's own constraint data.
func (s *Solver) impliedEquality(r int) (c []float64, yMax, beta float64) {
	tb := s.tb
	y := tb.t[r][tb.nStruct : tb.nStruct+tb.m]
	for _, yi := range y {
		yMax = math.Max(yMax, math.Abs(yi))
	}
	drop := pivotTol * math.Max(1, yMax)
	c = s.cert
	for j := range c {
		c[j] = 0
	}
	for i, yi := range y {
		if math.Abs(yi) < drop {
			continue
		}
		for _, term := range s.model.cons[i].Terms {
			c[term.Var] += yi * term.Coeff
		}
		c[tb.nStruct+i] = yi
		beta += yi * s.origRHS[i]
	}
	return c, yMax, beta
}

// provesInfeasible reports whether the equality implied by row r cannot
// hold anywhere in the current box: the interval of c·(x, s) over the
// bounds excludes β. It is a Farkas certificate computed from pristine
// data, so its verdict needs no cold confirmation. The margin is the cold
// path's own: a gap g means every point of the box misses some row by at
// least g/‖y‖∞, which is what phase 1 would report as residual artificial
// mass and compare against 10·tol.
func (s *Solver) provesInfeasible(r int) bool {
	tb := s.tb
	c, yMax, beta := s.impliedEquality(r)
	var lo, hi float64
	for j, cj := range c {
		switch {
		case cj > 0:
			lo += cj * tb.lower[j]
			hi += cj * tb.upper[j]
		case cj < 0:
			lo += cj * tb.upper[j]
			hi += cj * tb.lower[j]
		}
	}
	margin := 10 * tb.tol * math.Max(1, yMax)
	return lo > beta+margin || hi < beta-margin
}

// refactorize rebuilds the working tableau from pristine data onto the live
// basis — same vertex, fresh arithmetic: full-tableau updates lose accuracy
// with every pivot, and a Gaussian factorization that pivots each basic
// column into a row in greedy largest-pivot order resets the drift. Rows
// whose column cannot be pivoted stably keep their (pinned) artificial
// basic; the feasibility machinery absorbs the difference.
func (s *Solver) refactorize() {
	tb := s.tb
	artStart := tb.nStruct + tb.m
	s.stats.Refactorizations++

	// The basis is a set of columns; its row assignment is just one valid
	// pairing, so factorize column-by-column with row partial pivoting:
	// each basic column claims the free row where its current tableau entry
	// is largest. Columns whose entries are all tiny are retried after the
	// others have pivoted (which reshuffles the entries), and only then
	// abandoned to a pinned artificial.
	cols, rowFree := s.instCols[:0], s.rowFree
	for r, c := range tb.basis {
		// Artificial-basic rows stay claimed by their artificial.
		if rowFree[r] = c < artStart; rowFree[r] {
			cols = append(cols, c)
		}
	}

	s.resetTableau()
	tb.width = artStart
	for j := range tb.d {
		tb.d[j] = 0 // keep pivot's reduced-cost update inert during install
	}
	for _, c := range cols {
		tb.status[c] = atLower // overwritten when the column pivots in
	}
	for i := 0; i < tb.m; i++ {
		art := artStart + i
		tb.basis[i] = art
		tb.status[art] = basic
		tb.x[art] = 0
	}

	installed := 0
	for pass := 0; pass < 2 && len(cols) > 0; pass++ {
		deferred := cols[:0]
		for _, c := range cols {
			bestRow, bestAbs := -1, installPivotTol
			for r := 0; r < tb.m; r++ {
				if !rowFree[r] {
					continue
				}
				if a := math.Abs(tb.t[r][c]); a > bestAbs {
					bestRow, bestAbs = r, a
				}
			}
			if bestRow < 0 {
				deferred = append(deferred, c)
				continue
			}
			tb.pivot(bestRow, c, 0) // values are recomputed afterwards
			tb.iters++
			installed++
			rowFree[bestRow] = false
		}
		cols = deferred
	}
	s.pivotsSinceRef = installed
}

// repairBasis tries to restore primal feasibility after bound mutations by
// pivoting out-of-bounds basic variables onto their violated bound, letting
// a nonbasic column with a stable pivot absorb the residual. This is the
// fallback when the reduced costs do not admit dual pivoting (objective
// and bounds changed together). Reports whether the basis ended feasible.
func (s *Solver) repairBasis() bool {
	tb := s.tb
	for attempt := 0; attempt < 4; attempt++ {
		r := tb.firstInfeasibleRow()
		if r < 0 {
			return true
		}
		bi := tb.basis[r]
		target, stat := tb.lower[bi], atLower
		if tb.x[bi] > tb.upper[bi] {
			target, stat = tb.upper[bi], atUpper
		}
		// Entering column: prefer the largest stable pivot whose new value
		// stays inside its own bounds; fall back to the largest pivot.
		row := tb.t[r]
		deltaB := target - tb.x[bi]
		bestIn, bestInAbs := -1, installPivotTol
		bestAny, bestAnyAbs := -1, installPivotTol
		for j := 0; j < tb.width; j++ {
			if tb.status[j] == basic || tb.lower[j] == tb.upper[j] {
				continue
			}
			a := math.Abs(row[j])
			if a <= bestAnyAbs && a <= bestInAbs {
				continue
			}
			if a > bestAnyAbs {
				bestAny, bestAnyAbs = j, a
			}
			nx := tb.x[j] - deltaB/row[j]
			if nx >= tb.lower[j]-tb.tol && nx <= tb.upper[j]+tb.tol && a > bestInAbs {
				bestIn, bestInAbs = j, a
			}
		}
		j := bestIn
		if j < 0 {
			j = bestAny
		}
		if j < 0 {
			return false
		}
		newXj := tb.x[j] - deltaB/row[j]
		tb.status[bi] = stat
		tb.x[bi] = target
		tb.pivot(r, j, newXj)
		tb.iters++
		tb.computeBasics()
	}
	return tb.firstInfeasibleRow() < 0
}

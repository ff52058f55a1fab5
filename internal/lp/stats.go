package lp

// Stats counts what a Solver has done since it was built. Every field is a
// deterministic effort counter — a function of the model and the mutation
// stream, never of the clock — so two runs of one search report the same
// numbers and a regression can be pinned exactly.
//
// A solve is warm when the answer came from the live basis and cold when
// the two-phase simplex ran from pristine data. Cold solves that are not
// accounted for by a reason below had no basis to start from (a solver's
// first solve, or the one after a cold Infeasible).
type Stats struct {
	WarmSolves int
	ColdSolves int

	// Warm attempts abandoned to a cold solve, by reason.
	ColdDeadEnd   int // no entering column restores feasibility and no certificate proves there is none
	ColdStall     int // the dual pass ran out of its step budget
	ColdUnbounded int // the primal polish reported an unbounded ray
	ColdFeasGuard int // the warm optimum violated the model by more than warmFeasGuard

	DualPivots   int // basis changes in the dual simplex loop
	PrimalPivots int // primal simplex iterations (phases 1 and 2, warm polish), entering-variable bound flips included
	// BoundFlips counts long-step flips in the dual ratio test. A flip is an
	// O(m) value update, not a pivot, and is not part of Solution.Iterations.
	BoundFlips int
	// Refactorizations counts rebuilds of the tableau onto the live basis
	// from pristine data; their pivots are part of Solution.Iterations.
	Refactorizations int

	// Infeasibility certificates tried at a dual dead end: an accepted one
	// returned Infeasible warm, a failed one is counted in ColdDeadEnd too.
	CertAccepted int
	CertFailed   int
}

// ColdFallbacks returns how many warm attempts were abandoned to a cold
// solve, over every reason.
func (s Stats) ColdFallbacks() int {
	return s.ColdDeadEnd + s.ColdStall + s.ColdUnbounded + s.ColdFeasGuard
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.WarmSolves += o.WarmSolves
	s.ColdSolves += o.ColdSolves
	s.ColdDeadEnd += o.ColdDeadEnd
	s.ColdStall += o.ColdStall
	s.ColdUnbounded += o.ColdUnbounded
	s.ColdFeasGuard += o.ColdFeasGuard
	s.DualPivots += o.DualPivots
	s.PrimalPivots += o.PrimalPivots
	s.BoundFlips += o.BoundFlips
	s.Refactorizations += o.Refactorizations
	s.CertAccepted += o.CertAccepted
	s.CertFailed += o.CertFailed
}

package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

const testTol = 1e-6

func solveOK(t *testing.T, m *Model) *Solution {
	t.Helper()
	sol, err := NewSolver(m).Solve(Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func wantOptimal(t *testing.T, sol *Solution, obj float64) {
	t.Helper()
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-obj) > testTol {
		t.Fatalf("objective = %g, want %g", sol.Objective, obj)
	}
}

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 2y s.t. x+y <= 4, x+3y <= 6, x,y >= 0. Optimum at (4,0): 12.
	m := NewModel()
	x := m.AddVariable(0, Inf, "x")
	y := m.AddVariable(0, Inf, "y")
	m.SetObjective(x, 3)
	m.SetObjective(y, 2)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4, "c1")
	m.AddConstraint([]Term{{x, 1}, {y, 3}}, LE, 6, "c2")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 12)
	if math.Abs(sol.X[x]-4) > testTol || math.Abs(sol.X[y]) > testTol {
		t.Fatalf("X = %v, want (4,0)", sol.X)
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x+y >= 10, x <= 6, y <= 8, x,y >= 0.
	// Optimum: x=6, y=4 -> 24.
	m := NewModel()
	x := m.AddVariable(0, 6, "x")
	y := m.AddVariable(0, 8, "y")
	m.SetObjective(x, 2)
	m.SetObjective(y, 3)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 10, "cover")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 24)
}

func TestEqualityConstraint(t *testing.T) {
	// min x + y s.t. x + 2y = 4, 0<=x<=10, 0<=y<=10. Optimum y=2, x=0 -> 2.
	m := NewModel()
	x := m.AddVariable(0, 10, "x")
	y := m.AddVariable(0, 10, "y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 2}}, EQ, 4, "eq")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 2)
	if got := m.EvalRow(0, sol.X); math.Abs(got-4) > testTol {
		t.Fatalf("equality row = %g, want 4", got)
	}
}

func TestInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, "x")
	m.AddConstraint([]Term{{x, 1}}, GE, 2, "impossible")
	sol := solveOK(t, m)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestInfeasibleConflictingRows(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(-Inf, Inf, "x")
	y := m.AddVariable(-Inf, Inf, "y")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 1, "a")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 3, "b")
	sol := solveOK(t, m)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, Inf, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, -1}}, LE, 0, "loose")
	sol := solveOK(t, m)
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestFreeVariable(t *testing.T) {
	// min x s.t. x >= -5 via a constraint on a free variable.
	m := NewModel()
	x := m.AddVariable(-Inf, Inf, "x")
	m.SetObjective(x, 1)
	m.AddConstraint([]Term{{x, 1}}, GE, -5, "floor")
	sol := solveOK(t, m)
	wantOptimal(t, sol, -5)
}

func TestFreeVariablePair(t *testing.T) {
	// min x + y s.t. x - y = 3, x + y >= 1, both free.
	// x=(3+t)/?; param: y = x-3; x + y = 2x-3 >= 1 -> x >= 2. obj = 2x-3, min at x=2 -> 1.
	m := NewModel()
	x := m.AddVariable(-Inf, Inf, "x")
	y := m.AddVariable(-Inf, Inf, "y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.AddConstraint([]Term{{x, 1}, {y, -1}}, EQ, 3, "diff")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1, "sum")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 1)
}

func TestBoundFlipOnly(t *testing.T) {
	// max x + y with only box bounds; no constraints at all.
	m := NewModel()
	x := m.AddVariable(-1, 2, "x")
	y := m.AddVariable(0, 5, "y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	sol := solveOK(t, m)
	wantOptimal(t, sol, 7)
}

func TestFixedVariable(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(3, 3, "x")
	y := m.AddVariable(0, 10, "y")
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 8, "cap")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 5)
	if math.Abs(sol.X[x]-3) > testTol {
		t.Fatalf("fixed variable moved: %g", sol.X[x])
	}
}

func TestNegativeRHS(t *testing.T) {
	// min -x s.t. -x - y <= -2 (i.e. x + y >= 2), x <= 3, y <= 3.
	m := NewModel()
	x := m.AddVariable(0, 3, "x")
	y := m.AddVariable(0, 3, "y")
	m.SetObjective(x, -1)
	m.AddConstraint([]Term{{x, -1}, {y, -1}}, LE, -2, "neg")
	sol := solveOK(t, m)
	wantOptimal(t, sol, -3)
}

func TestDegenerateVertex(t *testing.T) {
	// Three constraints meeting at one point; classic degeneracy.
	m := NewModel()
	x := m.AddVariable(0, Inf, "x")
	y := m.AddVariable(0, Inf, "y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}}, LE, 1, "a")
	m.AddConstraint([]Term{{y, 1}}, LE, 1, "b")
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 2, "c")
	m.AddConstraint([]Term{{x, 1}, {y, 2}}, LE, 3, "d")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 2)
}

func TestDuplicateTermsMerged(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, Inf, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	// 0.5x + 0.5x <= 4  ->  x <= 4
	m.AddConstraint([]Term{{x, 0.5}, {x, 0.5}}, LE, 4, "dup")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 4)
}

// TestConstraintTermOrderCanonical: a row is a function of its terms as a
// set. Two models built from the same rows with the term lists shuffled —
// duplicates, cancelling pairs and zero coefficients included — store
// identical Terms (sorted by variable, exact capacity) and evaluate to the
// same bits. With the map-based merge the stored order, and so the last
// bits of FeasibilityError, changed from run to run.
func TestConstraintTermOrderCanonical(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const nVars = 12
	type rowSpec struct {
		terms []Term
		sense Sense
		rhs   float64
	}
	build := func(rows []rowSpec, shuffle bool) *Model {
		m := NewModel()
		for i := 0; i < nVars; i++ {
			m.AddVariable(-1, 1, "")
		}
		for _, row := range rows {
			terms := append([]Term(nil), row.terms...)
			if shuffle {
				rng.Shuffle(len(terms), func(i, j int) { terms[i], terms[j] = terms[j], terms[i] })
			}
			m.AddConstraint(terms, row.sense, row.rhs, "")
		}
		return m
	}
	for trial := 0; trial < 200; trial++ {
		rows := make([]rowSpec, 6)
		for r := range rows {
			rows[r].sense, rows[r].rhs = Sense(rng.Intn(3)), rng.NormFloat64()
			for v := 0; v < nVars; v++ {
				switch rng.Intn(6) {
				case 0, 1, 2:
					rows[r].terms = append(rows[r].terms, Term{v, rng.NormFloat64()})
				case 3: // a duplicate pair: summed
					c := rng.NormFloat64()
					rows[r].terms = append(rows[r].terms, Term{v, c}, Term{v, c})
				case 4: // a cancelling pair and an explicit zero: all three vanish
					rows[r].terms = append(rows[r].terms, Term{v, 0.75}, Term{v, -0.75}, Term{v, 0})
				}
			}
		}
		a, b := build(rows, false), build(rows, true)
		for i := range a.cons {
			ta, tb := a.cons[i].Terms, b.cons[i].Terms
			if !reflect.DeepEqual(ta, tb) {
				t.Fatalf("trial %d row %d: %v vs %v", trial, i, ta, tb)
			}
			if cap(ta) != len(ta) {
				t.Fatalf("trial %d row %d: %d terms in capacity %d", trial, i, len(ta), cap(ta))
			}
			for k, term := range ta {
				if term.Coeff == 0 || (k > 0 && ta[k-1].Var >= term.Var) {
					t.Fatalf("trial %d row %d: not canonical: %v", trial, i, ta)
				}
			}
		}
		x := make([]float64, nVars)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		if fa, fb := a.FeasibilityError(x), b.FeasibilityError(x); math.Float64bits(fa) != math.Float64bits(fb) {
			t.Fatalf("trial %d: FeasibilityError %x vs %x", trial, fa, fb)
		}
	}
}

// TestConstraintCopiesItsTerms: on the increasing-input fast path too, the
// stored row is the model's own — callers reuse their term buffers.
func TestConstraintCopiesItsTerms(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, "x")
	y := m.AddVariable(0, 1, "y")
	terms := []Term{{x, 1}, {y, 2}}
	m.AddConstraint(terms, LE, 1, "")
	terms[0].Coeff, terms[1].Coeff = 100, 100
	if got := m.EvalRow(0, []float64{1, 1}); got != 3 {
		t.Fatalf("row changed with the caller's buffer: evaluates to %g, want 3", got)
	}
}

func TestRedundantEqualityRows(t *testing.T) {
	// Duplicate equality rows should not break phase 1.
	m := NewModel()
	x := m.AddVariable(0, 10, "x")
	y := m.AddVariable(0, 10, "y")
	m.SetObjective(x, 2)
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, EQ, 5, "e1")
	m.AddConstraint([]Term{{x, 2}, {y, 2}}, EQ, 10, "e1-doubled")
	sol := solveOK(t, m)
	wantOptimal(t, sol, 10) // x=5, y=0
}

func TestCloneIndependence(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}}, LE, 2, "loose")
	c := m.Clone()
	c.SetBounds(x, 0, 0.25)
	c.AddConstraint([]Term{{x, 1}}, LE, 0.125, "clone-only")
	solOrig := solveOK(t, m)
	solClone := solveOK(t, c)
	wantOptimal(t, solOrig, 1)
	wantOptimal(t, solClone, 0.125)
	if m.NumConstraints() != 1 {
		t.Fatalf("a row added to the clone reached the original: %d rows", m.NumConstraints())
	}
	// Rows are immutable once stored, so a clone costs the model, its
	// variables and its row headers — not a copy of every term list.
	if allocs := testing.AllocsPerRun(10, func() { m.Clone() }); allocs > 3 {
		t.Fatalf("Clone allocates %v objects, want 3", allocs)
	}
}

func TestEvalAndFeasibilityError(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, "x")
	y := m.AddVariable(0, 1, "y")
	m.SetObjective(x, 2)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 1, "c")
	pt := []float64{0.9, 0.9}
	if got := m.FeasibilityError(pt); math.Abs(got-0.8) > testTol {
		t.Fatalf("FeasibilityError = %g, want 0.8", got)
	}
	if got := m.EvalObjective(pt); math.Abs(got-1.8) > testTol {
		t.Fatalf("EvalObjective = %g, want 1.8", got)
	}
}

func TestMaximizeEqualsNegatedMinimize(t *testing.T) {
	build := func(max bool) *Model {
		m := NewModel()
		x := m.AddVariable(0, 4, "x")
		y := m.AddVariable(0, 4, "y")
		sign := 1.0
		if !max {
			sign = -1
		}
		m.SetObjective(x, sign*1)
		m.SetObjective(y, sign*2)
		m.SetMaximize(max)
		m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 5, "c")
		return m
	}
	a := solveOK(t, build(true))
	b := solveOK(t, build(false))
	if a.Status != Optimal || b.Status != Optimal {
		t.Fatalf("statuses: %v %v", a.Status, b.Status)
	}
	if math.Abs(a.Objective+b.Objective) > testTol {
		t.Fatalf("max %g != -min %g", a.Objective, -b.Objective)
	}
}

// randomBoxLP builds a feasible random LP: box variables plus random LE rows
// that are guaranteed feasible at the box midpoint.
func randomBoxLP(rng *rand.Rand, nVars, nRows int) *Model {
	m := NewModel()
	mid := make([]float64, nVars)
	for i := 0; i < nVars; i++ {
		lo := rng.Float64()*4 - 2
		hi := lo + rng.Float64()*3 + 0.1
		m.AddVariable(lo, hi, "")
		m.SetObjective(i, rng.Float64()*2-1)
		mid[i] = (lo + hi) / 2
	}
	m.SetMaximize(rng.Intn(2) == 0)
	for r := 0; r < nRows; r++ {
		terms := make([]Term, 0, nVars)
		var lhsAtMid float64
		for i := 0; i < nVars; i++ {
			if rng.Float64() < 0.6 {
				c := rng.Float64()*2 - 1
				terms = append(terms, Term{i, c})
				lhsAtMid += c * mid[i]
			}
		}
		if len(terms) == 0 {
			continue
		}
		// Keep the midpoint feasible with positive slack.
		m.AddConstraint(terms, LE, lhsAtMid+rng.Float64()*2+0.05, "")
	}
	return m
}

// TestPropertyOptimalDominatesSamples checks, over random feasible LPs, that
// the reported optimum is feasible and at least as good as any random
// feasible point found by rejection sampling.
func TestPropertyOptimalDominatesSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		nVars := 2 + rng.Intn(5)
		nRows := 1 + rng.Intn(6)
		m := randomBoxLP(rng, nVars, nRows)
		sol := solveOK(t, m)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v (random box LP must be feasible and bounded)", trial, sol.Status)
		}
		if fe := m.FeasibilityError(sol.X); fe > 1e-5 {
			t.Fatalf("trial %d: solution infeasible by %g", trial, fe)
		}
		// Rejection-sample feasible points and compare.
		for s := 0; s < 300; s++ {
			pt := make([]float64, nVars)
			for i := 0; i < nVars; i++ {
				lo, hi := m.Bounds(i)
				pt[i] = lo + rng.Float64()*(hi-lo)
			}
			if m.FeasibilityError(pt) > 0 {
				continue
			}
			obj := m.EvalObjective(pt)
			if m.Maximizing() && obj > sol.Objective+1e-5 {
				t.Fatalf("trial %d: sampled point beats optimum: %g > %g", trial, obj, sol.Objective)
			}
			if !m.Maximizing() && obj < sol.Objective-1e-5 {
				t.Fatalf("trial %d: sampled point beats optimum: %g < %g", trial, obj, sol.Objective)
			}
		}
	}
}

// TestPropertyEqualityRowsHold solves random LPs with an equality row and
// verifies the row is satisfied exactly (within tolerance) at the optimum.
func TestPropertyEqualityRowsHold(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		nVars := 3 + rng.Intn(4)
		m := NewModel()
		target := 0.0
		terms := make([]Term, 0, nVars)
		for i := 0; i < nVars; i++ {
			m.AddVariable(0, 2, "")
			m.SetObjective(i, rng.Float64()*2-1)
			c := rng.Float64() + 0.2
			terms = append(terms, Term{i, c})
			target += c // equality achievable at all-ones
		}
		m.AddConstraint(terms, EQ, target, "eq")
		m.SetMaximize(trial%2 == 0)
		sol := solveOK(t, m)
		if sol.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, sol.Status)
		}
		if got := m.EvalRow(0, sol.X); math.Abs(got-target) > 1e-6 {
			t.Fatalf("trial %d: equality row %g != %g", trial, got, target)
		}
	}
}

// TestIterationLimit: a solve whose Cancel reports true stops with
// IterationLimit at its first poll.
func TestIterationLimit(t *testing.T) {
	m := NewModel()
	for i := 0; i < 10; i++ {
		m.AddVariable(0, 1, "")
		m.SetObjective(i, 1)
	}
	m.SetMaximize(true)
	sol, err := NewSolver(m).Solve(Options{Cancel: func() bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != IterationLimit {
		t.Fatalf("status = %v", sol.Status)
	}
}

func TestBadModelRejected(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddVariable with inverted bounds should panic")
		}
	}()
	NewModel().AddVariable(2, 1, "bad")
}

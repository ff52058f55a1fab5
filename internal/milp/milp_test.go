package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lp"
)

const tol = 1e-6

func solveOK(t *testing.T, p Problem, opts Options) *Result {
	t.Helper()
	res, err := SolveCtx(context.Background(), p, opts)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return res
}

func TestKnapsackSmall(t *testing.T) {
	// max 10a + 6b + 4c s.t. a+b+c<=2 (binaries). Optimum: a,b -> 16.
	m := lp.NewModel()
	var vars [3]int
	values := []float64{10, 6, 4}
	for i := range vars {
		vars[i] = m.AddVariable(0, 1, "")
		m.SetObjective(vars[i], values[i])
	}
	m.SetMaximize(true)
	m.AddConstraint([]lp.Term{{Var: vars[0], Coeff: 1}, {Var: vars[1], Coeff: 1}, {Var: vars[2], Coeff: 1}}, lp.LE, 2, "cap")
	res := solveOK(t, Problem{Model: m, Integers: vars[:]}, Options{})
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Objective-16) > tol {
		t.Fatalf("objective = %g, want 16", res.Objective)
	}
	for _, v := range vars {
		if f := res.X[v]; math.Abs(f-math.Round(f)) > tol {
			t.Fatalf("non-integral solution %v", res.X)
		}
	}
}

// TestWeightedKnapsackAgainstBruteForce cross-checks branch-and-bound against
// exhaustive enumeration over all binary assignments on random knapsacks.
func TestWeightedKnapsackAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		n := 4 + rng.Intn(7) // up to 10 binaries -> 1024 assignments
		values := make([]float64, n)
		weights := make([]float64, n)
		var wsum float64
		for i := range values {
			values[i] = rng.Float64()*10 + 0.1
			weights[i] = rng.Float64()*5 + 0.1
			wsum += weights[i]
		}
		capacity := wsum * (0.3 + 0.4*rng.Float64())

		m := lp.NewModel()
		ints := make([]int, n)
		terms := make([]lp.Term, n)
		for i := 0; i < n; i++ {
			ints[i] = m.AddVariable(0, 1, "")
			m.SetObjective(ints[i], values[i])
			terms[i] = lp.Term{Var: ints[i], Coeff: weights[i]}
		}
		m.SetMaximize(true)
		m.AddConstraint(terms, lp.LE, capacity, "cap")
		res := solveOK(t, Problem{Model: m, Integers: ints}, Options{})
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}

		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			var v, w float64
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					v += values[i]
					w += weights[i]
				}
			}
			if w <= capacity+1e-9 && v > best {
				best = v
			}
		}
		if math.Abs(res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: milp=%g bruteforce=%g", trial, res.Objective, best)
		}
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// x + y = 1 with both binaries forced to sum to 3: impossible.
	m := lp.NewModel()
	x := m.AddVariable(0, 1, "x")
	y := m.AddVariable(0, 1, "y")
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.EQ, 3, "sum3")
	res := solveOK(t, Problem{Model: m, Integers: []int{x, y}}, Options{})
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
}

func TestIntegerRounding(t *testing.T) {
	// max x s.t. 2x <= 5, x integer in [0,10] -> x = 2.
	m := lp.NewModel()
	x := m.AddVariable(0, 10, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 5, "half")
	res := solveOK(t, Problem{Model: m, Integers: []int{x}}, Options{})
	if res.Status != Optimal || math.Abs(res.Objective-2) > tol {
		t.Fatalf("status=%v obj=%g, want optimal 2", res.Status, res.Objective)
	}
}

func TestMixedContinuousInteger(t *testing.T) {
	// max 3b + y s.t. y <= 1.5 + b, y <= 4 - 2b, b binary, 0<=y<=10.
	// b=1: y <= 2.5 and y <= 2 -> 3+2 = 5. b=0: y <= 1.5 -> 1.5. Optimum 5.
	m := lp.NewModel()
	b := m.AddVariable(0, 1, "b")
	y := m.AddVariable(0, 10, "y")
	m.SetObjective(b, 3)
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: b, Coeff: -1}}, lp.LE, 1.5, "c1")
	m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: b, Coeff: 2}}, lp.LE, 4, "c2")
	res := solveOK(t, Problem{Model: m, Integers: []int{b}}, Options{})
	if res.Status != Optimal || math.Abs(res.Objective-5) > tol {
		t.Fatalf("status=%v obj=%g, want optimal 5", res.Status, res.Objective)
	}
}

func TestTimeLimitReported(t *testing.T) {
	// A knapsack big enough not to finish in a nanosecond.
	rng := rand.New(rand.NewSource(1))
	m := lp.NewModel()
	var ints []int
	terms := make([]lp.Term, 0, 30)
	for i := 0; i < 30; i++ {
		v := m.AddVariable(0, 1, "")
		m.SetObjective(v, rng.Float64()*10+1)
		terms = append(terms, lp.Term{Var: v, Coeff: rng.Float64()*5 + 1})
		ints = append(ints, v)
	}
	m.SetMaximize(true)
	m.AddConstraint(terms, lp.LE, 20, "cap")
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	res, err := SolveCtx(ctx, Problem{Model: m, Integers: ints}, Options{})
	if err != nil {
		t.Fatalf("SolveCtx: %v", err)
	}
	if res.Status != TimeLimit {
		t.Fatalf("status = %v, want time-limit", res.Status)
	}
}

func TestNodeLimitReported(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := lp.NewModel()
	var ints []int
	terms := make([]lp.Term, 0, 20)
	for i := 0; i < 20; i++ {
		v := m.AddVariable(0, 1, "")
		m.SetObjective(v, rng.Float64()*10+1)
		terms = append(terms, lp.Term{Var: v, Coeff: rng.Float64()*5 + 1})
		ints = append(ints, v)
	}
	m.SetMaximize(true)
	m.AddConstraint(terms, lp.LE, 13, "cap")
	res := solveOK(t, Problem{Model: m, Integers: ints}, Options{MaxNodes: 2})
	if res.Status != NodeLimit && res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Status == NodeLimit && res.Nodes > 2 {
		t.Fatalf("nodes = %d, exceeds limit", res.Nodes)
	}
}

func TestBoundDirectionMaximize(t *testing.T) {
	m := lp.NewModel()
	x := m.AddVariable(0, 1, "x")
	m.SetObjective(x, 7)
	m.SetMaximize(true)
	res := solveOK(t, Problem{Model: m, Integers: []int{x}}, Options{})
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.Bound-res.Objective) > tol {
		t.Fatalf("bound %g should meet objective %g at optimality", res.Bound, res.Objective)
	}
}

func TestModelNotMutated(t *testing.T) {
	m := lp.NewModel()
	x := m.AddVariable(0, 1, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	m.AddConstraint([]lp.Term{{Var: x, Coeff: 2}}, lp.LE, 1, "c")
	loBefore, hiBefore := m.Bounds(x)
	solveOK(t, Problem{Model: m, Integers: []int{x}}, Options{})
	loAfter, hiAfter := m.Bounds(x)
	if loBefore != loAfter || hiBefore != hiAfter {
		t.Fatal("Solve mutated the caller's model bounds")
	}
}

func TestSortedIntegers(t *testing.T) {
	p := Problem{Integers: []int{5, 1, 3}}
	got := p.SortedIntegers()
	if got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Fatalf("SortedIntegers = %v", got)
	}
	if p.Integers[0] != 5 {
		t.Fatal("SortedIntegers mutated the problem")
	}
}

func TestGapEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := lp.NewModel()
	var ints []int
	terms := make([]lp.Term, 0, 16)
	for i := 0; i < 16; i++ {
		v := m.AddVariable(0, 1, "")
		m.SetObjective(v, rng.Float64()*10+1)
		terms = append(terms, lp.Term{Var: v, Coeff: rng.Float64()*5 + 1})
		ints = append(ints, v)
	}
	m.SetMaximize(true)
	m.AddConstraint(terms, lp.LE, 11, "cap")
	loose := solveOK(t, Problem{Model: m, Integers: ints}, Options{Gap: 0.5})
	exact := solveOK(t, Problem{Model: m, Integers: ints}, Options{})
	if !loose.HasSolution || !exact.HasSolution {
		t.Fatal("both solves should find solutions")
	}
	if loose.Objective > exact.Objective+tol {
		t.Fatalf("loose solve objective %g exceeds exact optimum %g", loose.Objective, exact.Objective)
	}
}

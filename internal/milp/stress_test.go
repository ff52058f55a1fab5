package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// TestEqualityPartition: pick exactly k of n binaries (equality row) with
// max value — cross-checked against sorting.
func TestEqualityPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, k := 12, 5
	m := lp.NewModel()
	values := make([]float64, n)
	ints := make([]int, n)
	terms := make([]lp.Term, n)
	for i := 0; i < n; i++ {
		values[i] = rng.Float64() * 10
		ints[i] = m.AddVariable(0, 1, "")
		m.SetObjective(ints[i], values[i])
		terms[i] = lp.Term{Var: ints[i], Coeff: 1}
	}
	m.SetMaximize(true)
	m.AddConstraint(terms, lp.EQ, float64(k), "pick-k")
	res, err := SolveCtx(context.Background(), Problem{Model: m, Integers: ints}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	sorted := append([]float64(nil), values...)
	for i := range sorted { // selection of the k largest by simple passes
		for j := i + 1; j < len(sorted); j++ {
			if sorted[j] > sorted[i] {
				sorted[i], sorted[j] = sorted[j], sorted[i]
			}
		}
	}
	var want float64
	for i := 0; i < k; i++ {
		want += sorted[i]
	}
	if math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("objective %g, want %g (top-%d sum)", res.Objective, want, k)
	}
	// Exactly k binaries set.
	count := 0.0
	for _, v := range ints {
		count += res.X[v]
	}
	if math.Abs(count-float64(k)) > 1e-6 {
		t.Fatalf("selected %g binaries, want %d", count, k)
	}
}

// TestBigMDisjunction exercises the exact constraint pattern the verifier
// emits: y = relu(a) via big-M with indicator d, maximized over a box.
func TestBigMDisjunction(t *testing.T) {
	// a in [-2, 3]; y = max(0, a); maximize y - 0.1a => best at a=3: 2.7.
	m := lp.NewModel()
	a := m.AddVariable(-2, 3, "a")
	y := m.AddVariable(0, 3, "y")
	d := m.AddVariable(0, 1, "d")
	m.SetObjective(y, 1)
	m.SetObjective(a, -0.1)
	m.SetMaximize(true)
	// y >= a ; y <= a + 2(1-d) ; y <= 3d
	m.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: y, Coeff: -1}}, lp.LE, 0, "y>=a")
	m.AddConstraint([]lp.Term{{Var: a, Coeff: 1}, {Var: y, Coeff: -1}, {Var: d, Coeff: -2}}, lp.GE, -2, "y<=a+2(1-d)")
	m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: d, Coeff: -3}}, lp.LE, 0, "y<=3d")
	res, err := SolveCtx(context.Background(), Problem{Model: m, Integers: []int{d}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-2.7) > 1e-6 {
		t.Fatalf("status %v obj %g, want optimal 2.7", res.Status, res.Objective)
	}
	// The relu relation must hold at the solution.
	if math.Abs(res.X[y]-math.Max(0, res.X[a])) > 1e-6 {
		t.Fatalf("relu broken: y=%g a=%g", res.X[y], res.X[a])
	}
}

// TestManyBinariesBoundedDepth solves a 24-binary problem whose LP
// relaxation is integral at most nodes — should finish in few nodes.
func TestManyBinariesBoundedDepth(t *testing.T) {
	m := lp.NewModel()
	var ints []int
	for i := 0; i < 24; i++ {
		v := m.AddVariable(0, 1, "")
		m.SetObjective(v, float64(i+1))
		ints = append(ints, v)
	}
	m.SetMaximize(true) // unconstrained: optimum all ones, relaxation integral
	res, err := SolveCtx(context.Background(), Problem{Model: m, Integers: ints}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || res.Nodes != 1 {
		t.Fatalf("status %v nodes %d; integral relaxation should close at the root", res.Status, res.Nodes)
	}
	if math.Abs(res.Objective-300) > 1e-6 { // 1+2+...+24
		t.Fatalf("objective %g, want 300", res.Objective)
	}
}

// TestRandomMixedProblemsAgainstEnumeration cross-checks mixed binary/
// continuous problems against brute-force over binary assignments with an
// LP solve per assignment.
func TestRandomMixedProblemsAgainstEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		nBin, nCont := 2+rng.Intn(4), 2+rng.Intn(3)
		m := lp.NewModel()
		var ints []int
		for i := 0; i < nBin; i++ {
			v := m.AddVariable(0, 1, "")
			m.SetObjective(v, rng.Float64()*4-2)
			ints = append(ints, v)
		}
		for i := 0; i < nCont; i++ {
			v := m.AddVariable(-1, 1, "")
			m.SetObjective(v, rng.Float64()*4-2)
		}
		m.SetMaximize(true)
		// A couple of random LE rows feasible at the origin.
		total := nBin + nCont
		for r := 0; r < 2; r++ {
			terms := make([]lp.Term, 0, total)
			for v := 0; v < total; v++ {
				if rng.Float64() < 0.7 {
					terms = append(terms, lp.Term{Var: v, Coeff: rng.Float64()*2 - 1})
				}
			}
			if len(terms) > 0 {
				m.AddConstraint(terms, lp.LE, rng.Float64()+0.1, "")
			}
		}
		res, err := SolveCtx(context.Background(), Problem{Model: m, Integers: ints}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			continue // random rows may cut off all binary corners; fine
		}
		// Enumerate binary assignments, solve the continuous LP for each.
		best := math.Inf(-1)
		for mask := 0; mask < 1<<nBin; mask++ {
			fixed := m.Clone()
			for i, v := range ints {
				val := float64((mask >> i) & 1)
				fixed.SetBounds(v, val, val)
			}
			sol, err := lp.NewSolver(fixed).Solve(lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == lp.Optimal && sol.Objective > best {
				best = sol.Objective
			}
		}
		if math.Abs(res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: milp %g vs enumeration %g", trial, res.Objective, best)
		}
	}
}

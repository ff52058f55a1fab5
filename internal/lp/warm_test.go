package lp

import (
	"math"
	"math/rand"
	"testing"
)

// checkAgainstCold solves the model's current state both through the
// persistent solver (warm when possible) and through a fresh cold solve,
// and requires agreement in status and objective.
func checkAgainstCold(t *testing.T, s *Solver, tag string) {
	t.Helper()
	warm, err := s.Solve(Options{})
	if err != nil {
		t.Fatalf("%s: warm solve: %v", tag, err)
	}
	cold, err := NewSolver(s.Model()).Solve(Options{})
	if err != nil {
		t.Fatalf("%s: cold solve: %v", tag, err)
	}
	if warm.Status != cold.Status {
		t.Fatalf("%s: warm status %v, cold %v", tag, warm.Status, cold.Status)
	}
	if warm.Status == Optimal {
		if math.Abs(warm.Objective-cold.Objective) > 1e-6 {
			t.Fatalf("%s: warm objective %.12g, cold %.12g", tag, warm.Objective, cold.Objective)
		}
		if fe := s.Model().FeasibilityError(warm.X); fe > 1e-5 {
			t.Fatalf("%s: warm solution infeasible by %g", tag, fe)
		}
	}
}

// TestWarmObjectiveMutations re-solves one model under a stream of
// objective changes — the LP-tightening access pattern, where the saved basis
// always stays primal feasible and phase 1 must never run again.
func TestWarmObjectiveMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		m := randomBoxLP(rng, 4+rng.Intn(6), 2+rng.Intn(5))
		s := NewSolver(m)
		for step := 0; step < 25; step++ {
			for v := 0; v < m.NumVariables(); v++ {
				m.SetObjective(v, rng.Float64()*4-2)
			}
			m.SetMaximize(step%2 == 0)
			checkAgainstCold(t, s, "objective-mutation")
		}
	}
}

// TestWarmBoundMutations re-solves under random bound tightenings and
// restorations, including mutations that make the model infeasible.
func TestWarmBoundMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 8; trial++ {
		n := 4 + rng.Intn(5)
		m := randomBoxLP(rng, n, 2+rng.Intn(4))
		orig := make([][2]float64, n)
		for v := 0; v < n; v++ {
			lo, hi := m.Bounds(v)
			orig[v] = [2]float64{lo, hi}
		}
		s := NewSolver(m)
		for step := 0; step < 30; step++ {
			v := rng.Intn(n)
			lo, hi := orig[v][0], orig[v][1]
			switch rng.Intn(3) {
			case 0: // tighten to a random sub-interval
				a := lo + rng.Float64()*(hi-lo)
				b := a + rng.Float64()*(hi-a)
				m.SetBounds(v, a, b)
			case 1: // fix at a point
				p := lo + rng.Float64()*(hi-lo)
				m.SetBounds(v, p, p)
			default: // restore
				m.SetBounds(v, lo, hi)
			}
			checkAgainstCold(t, s, "bound-mutation")
		}
	}
}

// TestWarmBinaryFixPattern drives the exact mutation sequence branch-and-
// bound performs on the verifier's big-M encodings: repeatedly fix an
// indicator to [0,0] or [1,1], re-solve, release it.
func TestWarmBinaryFixPattern(t *testing.T) {
	// y = relu(a) over a ∈ [-2, 3] via big-M with indicator d.
	m := NewModel()
	a := m.AddVariable(-2, 3, "a")
	y := m.AddVariable(0, 3, "y")
	d := m.AddVariable(0, 1, "d")
	m.SetObjective(y, 1)
	m.SetObjective(a, -0.1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{a, 1}, {y, -1}}, LE, 0, "y>=a")
	m.AddConstraint([]Term{{a, 1}, {y, -1}, {d, -2}}, GE, -2, "y<=a+2(1-d)")
	m.AddConstraint([]Term{{y, 1}, {d, -3}}, LE, 0, "y<=3d")

	s := NewSolver(m)
	fixes := [][2]float64{{0, 1}, {0, 0}, {0, 1}, {1, 1}, {0, 0}, {1, 1}, {0, 1}}
	for i, fx := range fixes {
		m.SetBounds(d, fx[0], fx[1])
		checkAgainstCold(t, s, "binary-fix")
		_ = i
	}
}

// TestSolverStructureChange verifies the solver survives a model that grows
// between solves (rebuild path).
func TestSolverStructureChange(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 2, "x")
	m.SetObjective(x, 1)
	m.SetMaximize(true)
	s := NewSolver(m)
	sol, err := s.Solve(Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-2) > 1e-9 {
		t.Fatalf("first solve: %+v err=%v", sol, err)
	}
	y := m.AddVariable(0, 3, "y")
	m.SetObjective(y, 1)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, LE, 4, "cap")
	sol, err = s.Solve(Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-4) > 1e-6 {
		t.Fatalf("post-growth solve: %+v err=%v", sol, err)
	}
}

// TestWarmAfterInfeasible makes sure an infeasible episode does not poison
// later warm solves.
func TestWarmAfterInfeasible(t *testing.T) {
	m := NewModel()
	x := m.AddVariable(0, 1, "x")
	y := m.AddVariable(0, 1, "y")
	m.SetObjective(x, 1)
	m.SetObjective(y, 1)
	m.SetMaximize(true)
	m.AddConstraint([]Term{{x, 1}, {y, 1}}, GE, 1, "floor")
	s := NewSolver(m)
	for i := 0; i < 6; i++ {
		if i%2 == 1 {
			m.SetBounds(x, 0, 0.2)
			m.SetBounds(y, 0, 0.2) // 0.4 < 1: infeasible
		} else {
			m.SetBounds(x, 0, 1)
			m.SetBounds(y, 0, 1)
		}
		checkAgainstCold(t, s, "infeasible-cycle")
	}
}

// TestWarmManySolvesDriftGuard runs enough warm re-solves to cross the
// refactorization period several times and checks exactness throughout.
func TestWarmManySolvesDriftGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	m := randomBoxLP(rng, 12, 10)
	s := NewSolver(m)
	for step := 0; step < 300; step++ {
		v := rng.Intn(12)
		lo, hi := m.Bounds(v)
		if hi-lo > 0.2 && rng.Intn(2) == 0 {
			m.SetBounds(v, lo, lo+(hi-lo)*0.9)
		} else {
			for w := 0; w < 12; w++ {
				m.SetObjective(w, rng.Float64()*2-1)
			}
		}
		warm, err := s.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		if step%23 == 0 { // spot-check against cold (cold every step is slow)
			cold, err := NewSolver(m).Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Status != cold.Status {
				t.Fatalf("step %d: status %v vs %v", step, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && math.Abs(warm.Objective-cold.Objective) > 1e-6 {
				t.Fatalf("step %d: objective %.12g vs %.12g", step, warm.Objective, cold.Objective)
			}
		}
	}
}

// BenchmarkWarmResolve measures the persistent solver on the branch-and-
// bound access pattern (solve, fix a bound, re-solve) against the cold path
// BenchmarkColdResolve takes on the identical mutation stream.
func BenchmarkWarmResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	m := randomBoxLP(rng, 60, 40)
	s := NewSolver(m)
	if _, err := s.Solve(Options{}); err != nil {
		b.Fatal(err)
	}
	orig := make([][2]float64, 60)
	for v := range orig {
		lo, hi := m.Bounds(v)
		orig[v] = [2]float64{lo, hi}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % 60
		if i%2 == 0 {
			m.SetBounds(v, orig[v][0], orig[v][0])
		} else {
			m.SetBounds(v, orig[v][0], orig[v][1])
		}
		if _, err := s.Solve(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkColdResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	m := randomBoxLP(rng, 60, 40)
	orig := make([][2]float64, 60)
	for v := range orig {
		lo, hi := m.Bounds(v)
		orig[v] = [2]float64{lo, hi}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % 60
		if i%2 == 0 {
			m.SetBounds(v, orig[v][0], orig[v][0])
		} else {
			m.SetBounds(v, orig[v][0], orig[v][1])
		}
		if _, err := NewSolver(m).Solve(Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

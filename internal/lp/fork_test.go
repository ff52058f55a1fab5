package lp

import (
	"math"
	"math/rand"
	"testing"
)

// sameSolution requires two solutions to agree bit for bit.
func sameSolution(t *testing.T, tag string, a, b *Solution) {
	t.Helper()
	if a.Status != b.Status || a.Iterations != b.Iterations ||
		math.Float64bits(a.Objective) != math.Float64bits(b.Objective) || len(a.X) != len(b.X) {
		t.Fatalf("%s: %v/%d pivots/%x vs %v/%d pivots/%x", tag,
			a.Status, a.Iterations, a.Objective, b.Status, b.Iterations, b.Objective)
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("%s: X[%d] = %x vs %x", tag, i, a.X[i], b.X[i])
		}
	}
}

// TestForkTracksOrigin: a fork taken mid-stream and its origin, fed the
// same bound fixes, return bit-equal solutions and spend equal effort, in
// whichever order they solve — the fork starts from a copy of the live
// state and shares none of it.
func TestForkTracksOrigin(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	var warmFirst int
	for trial := 0; trial < 300; trial++ {
		var m *Model
		var cols []int
		if trial%10 == 0 {
			m, cols = bigMNetLP(rng, 20, []int{6, 6}, 3)
		} else {
			n := 3 + rng.Intn(7)
			m = randomSensedLP(rng, n, 2+rng.Intn(6))
			for v := 0; v < n; v++ {
				cols = append(cols, v)
			}
		}
		orig := make(map[int][2]float64, len(cols))
		for _, v := range cols {
			lo, hi := m.Bounds(v)
			orig[v] = [2]float64{lo, hi}
		}
		fixBoth := func(models ...*Model) {
			v := cols[rng.Intn(len(cols))]
			lo, hi := orig[v][0], orig[v][1]
			switch rng.Intn(5) {
			case 0:
			case 1, 2:
				hi = lo
			default:
				lo = hi
			}
			for _, mm := range models {
				mm.SetBounds(v, lo, hi)
			}
		}

		s := NewSolver(m)
		for step := 0; step < 1+rng.Intn(4); step++ {
			if _, err := s.Solve(Options{}); err != nil {
				t.Fatal(err)
			}
			fixBoth(m)
		}
		clone := m.Clone()
		f := s.Fork(clone)
		if got := f.Stats(); got != (Stats{}) {
			t.Fatalf("trial %d: fork starts with counters %+v", trial, got)
		}
		atFork := s.Stats()
		for step := 0; step < 6; step++ {
			var a, b *Solution
			var err error
			if step%2 == 0 { // the fork first, then the origin: neither disturbs the other
				b, err = f.Solve(Options{})
				if err == nil {
					a, err = s.Solve(Options{})
				}
			} else {
				a, err = s.Solve(Options{})
				if err == nil {
					b, err = f.Solve(Options{})
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			sameSolution(t, "fork vs origin", a, b)
			// The fork counts from zero: origin = origin-at-fork + fork.
			want := atFork
			want.Add(f.Stats())
			if got := s.Stats(); got != want {
				t.Fatalf("trial %d step %d: origin at %+v, fork accounts for %+v", trial, step, got, want)
			}
			if step == 0 && f.Stats().WarmSolves == 1 {
				warmFirst++
			}
			fixBoth(m, clone)
		}
	}
	if warmFirst < 200 {
		t.Fatalf("only %d of 300 forks solved their first LP warm", warmFirst)
	}
}

// TestForkWithoutBasis: a solver that has nothing live to copy — never
// solved, or fresh from a cold Infeasible — forks into a plain
// new solver, whose first solve is cold and agrees with a one-shot Solve.
func TestForkWithoutBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := randomBoxLP(rng, 8, 6)
	unsolved := NewSolver(m)

	empty := NewModel()
	x := empty.AddVariable(0, 1, "x")
	empty.AddConstraint([]Term{{x, 1}}, GE, 2, "")
	infeasible := NewSolver(empty)
	if sol, err := infeasible.Solve(Options{}); err != nil || sol.Status != Infeasible {
		t.Fatalf("setup: %v %v", sol, err)
	}

	for name, s := range map[string]*Solver{"unsolved": unsolved, "infeasible": infeasible} {
		clone := s.Model().Clone()
		f := s.Fork(clone)
		got, err := f.Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewSolver(clone).Solve(Options{})
		if err != nil {
			t.Fatal(err)
		}
		sameSolution(t, name, got, want)
		if st := f.Stats(); st.ColdSolves != 1 || st.WarmSolves != 0 {
			t.Fatalf("%s: fork's first solve was not a plain cold solve: %+v", name, st)
		}
	}
}

// TestSolutionXLifetime pins the documented ownership of Solution.X: one
// buffer per Solver, rewritten by its next solve; a one-shot Solve hands
// out a buffer nobody else writes.
func TestSolutionXLifetime(t *testing.T) {
	m := randomBoxLP(rand.New(rand.NewSource(5)), 6, 4)
	s := NewSolver(m)
	first, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := m.Bounds(0)
	m.SetBounds(0, lo, lo)
	second, err := s.Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &first.X[0] != &second.X[0] {
		t.Fatal("consecutive solves of one Solver returned distinct X buffers")
	}
	oneShot, err := NewSolver(m).Solve(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if &oneShot.X[0] == &second.X[0] {
		t.Fatal("one-shot Solve returned the persistent solver's buffer")
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Solve(Options{}) }); allocs > 1 {
		t.Fatalf("a warm re-solve allocates %v objects, want the Solution alone", allocs)
	}
}

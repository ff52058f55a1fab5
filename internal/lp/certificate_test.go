package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomSensedLP builds a random boxed LP whose rows, of all three senses,
// hold at the box midpoint — so the LP is feasible until bound fixes push
// the box away from it, and every kind of slack box (half-infinite either
// way, pinned) reaches the certificate.
func randomSensedLP(rng *rand.Rand, nVars, nRows int) *Model {
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
		var terms []Term
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
		switch rng.Intn(5) {
		case 0:
			m.AddConstraint(terms, EQ, lhsAtMid, "")
		case 1, 2:
			m.AddConstraint(terms, GE, lhsAtMid-rng.Float64()-0.05, "")
		default:
			m.AddConstraint(terms, LE, lhsAtMid+rng.Float64()+0.05, "")
		}
	}
	return m
}

// TestWarmVerdictsAgainstCold is the differential oracle for the warm
// path: 2 000 seeded LPs, each driven through a branch-and-bound-like
// stream of bound fixes (a variable pinned to one end of its box, now and
// then released) that sooner or later empties the feasible set. Whatever
// the persistent solver answers warm, a fresh cold solve of the same
// bounds must agree: in particular every Infeasible accepted on the
// pristine-data certificate, and every warm optimum to 1e-7.
func TestWarmVerdictsAgainstCold(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	var certified, warmOptima int
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(7)
		m := randomSensedLP(rng, n, 2+rng.Intn(6))
		orig := make([][2]float64, n)
		for v := range orig {
			orig[v][0], orig[v][1] = m.Bounds(v)
		}
		s := NewSolver(m)
		if _, err := s.Solve(Options{}); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 10; step++ {
			v := rng.Intn(n)
			switch rng.Intn(5) {
			case 0:
				m.SetBounds(v, orig[v][0], orig[v][1])
			case 1, 2:
				m.SetBounds(v, orig[v][0], orig[v][0])
			default:
				m.SetBounds(v, orig[v][1], orig[v][1])
			}
			before := s.Stats()
			warm, err := s.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			after := s.Stats()
			cold, err := NewSolver(m).Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if after.CertAccepted > before.CertAccepted {
				certified++
				if warm.Status != Infeasible || cold.Status != Infeasible {
					t.Fatalf("trial %d step %d: certificate accepted, warm %v, cold %v", trial, step, warm.Status, cold.Status)
				}
			}
			if warm.Status != cold.Status {
				t.Fatalf("trial %d step %d: warm %v, cold %v", trial, step, warm.Status, cold.Status)
			}
			if warm.Status == Optimal && after.WarmSolves > before.WarmSolves {
				warmOptima++
				if math.Abs(warm.Objective-cold.Objective) > 1e-7 {
					t.Fatalf("trial %d step %d: warm optimum %.12g, cold %.12g", trial, step, warm.Objective, cold.Objective)
				}
			}
		}
	}
	// The stream must actually reach both verdicts, or the test proves nothing.
	if certified < 1000 || warmOptima < 1000 {
		t.Fatalf("stream too tame: %d certified infeasible, %d warm optima", certified, warmOptima)
	}
}

// TestFlipWithinOneUlpStaysWarm: z = (a+b)/2 is basic at 0 and its lower
// bound is raised one ulp past what a and b can reach together. The dual
// pass flips a, and b's range then covers the residual up to that ulp.
// Ending the row on a flip would leave z 6e-17 short of its bound with no
// column left to enter — a feasible node (to any tolerance) abandoned to a
// cold solve. b must enter instead and the solve must finish warm.
func TestFlipWithinOneUlpStaysWarm(t *testing.T) {
	m := NewModel()
	a := m.AddVariable(0, 0.1, "a")
	b := m.AddVariable(0, 0.2, "b")
	z := m.AddVariable(0, 10, "z")
	m.SetObjective(a, 1)
	m.SetObjective(b, 2)
	m.AddConstraint([]Term{{a, 1}, {b, 1}, {z, -2}}, EQ, 0, "z=(a+b)/2")
	s := NewSolver(m)
	if sol, err := s.Solve(Options{}); err != nil || sol.Status != Optimal || sol.Objective != 0 {
		t.Fatalf("root: %+v err=%v", sol, err)
	}
	m.SetBounds(z, math.Nextafter(0.05+0.1, 1), 10)
	sol, err := s.Solve(Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-0.5) > 1e-12 {
		t.Fatalf("child: %+v err=%v", sol, err)
	}
	if st := s.Stats(); st.ColdFallbacks() != 0 || st.WarmSolves != 1 || st.ColdSolves != 1 {
		t.Fatalf("child did not stay warm: %+v", st)
	}
}

// TestCertificateHandComputed pins the certificate's arithmetic on a case
// small enough to do by hand (the Spark vector-test idiom: exact small
// cases to 1e-12).
//
//	min x1 + x2
//	r0: x1 +  x2      ≤ 10   slack s0 ∈ [0, +∞)   loose: s0 stays basic
//	r1: x1 + 2·x2     ≥ 2    slack s1 ∈ (−∞, 0]
//	x1 ∈ [0, 3], x2 ∈ [0, 3]
//
// The root optimum is x = (0, 1) with x2 basic in r1, whose tableau row is
// x2 + ½x1 + ½s1 = 1: y = (0, ½). Shrinking the box to x1 ≤ 0.4, x2 ≤ 0.3
// leaves x2 above its bound with nothing to enter once x1 has flipped. The
// implied equality is c·(x1, x2, s0, s1) = β with c = yᵀ[A | I] =
// (½, 1, 0, ½) and β = yᵀb = 1, and over the box c·(x, s) ≤ ½·0.4 + 0.3 +
// ½·0 = 0.5 < 1: infeasible. A 1e-12 entry planted where y0 is exactly 0 —
// the roundoff a drifted row carries — must be dropped, not multiplied into
// s0's infinite upper bound, where it would make the upper end +∞ and the
// certificate fail.
func TestCertificateHandComputed(t *testing.T) {
	m := NewModel()
	x1 := m.AddVariable(0, 3, "x1")
	x2 := m.AddVariable(0, 3, "x2")
	m.SetObjective(x1, 1)
	m.SetObjective(x2, 1)
	m.AddConstraint([]Term{{x1, 1}, {x2, 1}}, LE, 10, "r0")
	m.AddConstraint([]Term{{x1, 1}, {x2, 2}}, GE, 2, "r1")
	s := NewSolver(m)
	sol, err := s.Solve(Options{})
	if err != nil || sol.Status != Optimal || math.Abs(sol.Objective-1) > 1e-12 {
		t.Fatalf("root: %+v err=%v", sol, err)
	}
	tb := s.tb
	r := -1
	for i, c := range tb.basis {
		if c == x2 {
			r = i
		}
	}
	if r < 0 || tb.status[x1] == basic {
		t.Fatalf("premise: want x2 basic and x1 nonbasic at the root, basis %v", tb.basis)
	}
	tb.t[r][tb.nStruct+0] = 1e-12

	m.SetBounds(x1, 0, 0.4)
	m.SetBounds(x2, 0, 0.3)
	sol, err = s.Solve(Options{})
	if err != nil || sol.Status != Infeasible {
		t.Fatalf("child: %+v err=%v", sol, err)
	}
	if st := s.Stats(); st.CertAccepted != 1 || st.CertFailed != 0 || st.ColdSolves != 1 {
		t.Fatalf("child verdict did not come from the warm certificate: %+v", st)
	}
	if cold, err := NewSolver(m).Solve(Options{}); err != nil || cold.Status != Infeasible {
		t.Fatalf("cold confirmation: %+v err=%v", cold, err)
	}

	c, yMax, beta := s.impliedEquality(r)
	want := []float64{0.5, 1, 0, 0.5}
	for j := range want {
		if math.Abs(c[j]-want[j]) > 1e-12 {
			t.Fatalf("c = %v, want %v", c, want)
		}
	}
	if c[tb.nStruct+0] != 0 {
		t.Fatalf("noise entry survived: c[s0] = %g", c[tb.nStruct+0])
	}
	if math.Abs(yMax-0.5) > 1e-12 || math.Abs(beta-1) > 1e-12 {
		t.Fatalf("‖y‖∞ = %.15g, β = %.15g, want 0.5 and 1", yMax, beta)
	}
}

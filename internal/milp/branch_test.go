package milp

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/lp"
)

// halves is max y0 + y1 + y2 + y3 over binaries with 2·y ≤ 1 on y0, y1
// and y3: the root LP point is 1/2 on those three and 1 on y2, so three
// integers tie on fractionality and one is integral. Integers lists the
// variables in reverse, so that an index into it is not a variable.
func halves() Problem {
	m := lp.NewModel()
	var y [4]int
	for k := range y {
		y[k] = m.AddVariable(0, 1, "")
		m.SetObjective(y[k], 1)
		if k != 2 {
			m.AddConstraint([]lp.Term{{Var: y[k], Coeff: 2}}, lp.LE, 1, "")
		}
	}
	m.SetMaximize(true)
	return Problem{Model: m, Integers: []int{y[3], y[2], y[1], y[0]}}
}

// TestBranchScoreContract pins Options.Score's contract: it is called only
// on integers fractional beyond intTol, the root branches on the integer
// with the largest score, and a tie goes to the lowest index into
// Problem.Integers.
func TestBranchScoreContract(t *testing.T) {
	p := halves()
	defer func() { testNodeHook = nil }()
	for _, tc := range []struct {
		name  string
		score func(x []float64, i int) float64
		want  int // index into p.Integers of the root's branching variable
	}{
		{"nil: most fractional, three tied", nil, 0},
		{"constant", func([]float64, int) float64 { return 1 }, 0},
		{"2 and 3 tied above 0", func(_ []float64, i int) float64 { return float64(min(i, 2)) }, 2},
		{"3 above 2", func(_ []float64, i int) float64 { return float64(i) }, 3},
		{"integral 1 would win", func(_ []float64, i int) float64 { return float64(i % 2 * 9) }, 3},
	} {
		for _, workers := range []int{1, 2} {
			var mu sync.Mutex
			var badCalls []int
			score := tc.score
			if score != nil {
				score = func(x []float64, i int) float64 {
					if f := x[p.Integers[i]]; math.Abs(f-math.Round(f)) <= intTol {
						mu.Lock()
						badCalls = append(badCalls, i)
						mu.Unlock()
					}
					return tc.score(x, i)
				}
			}
			branched := -1
			testNodeHook = func(nd *node) error {
				mu.Lock()
				defer mu.Unlock()
				if nd.depth == 1 && branched < 0 {
					branched = nd.fixes[0].v
				}
				return nil
			}
			res, err := SolveCtx(context.Background(), p, Options{Workers: workers, Score: score})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != Optimal || math.Abs(res.Objective-1) > tol {
				t.Fatalf("%s, workers=%d: %v, objective %g, want optimal 1", tc.name, workers, res.Status, res.Objective)
			}
			if len(badCalls) > 0 {
				t.Errorf("%s, workers=%d: scored integral integers %v", tc.name, workers, badCalls)
			}
			if branched != p.Integers[tc.want] {
				t.Errorf("%s, workers=%d: root branched on variable %d, want %d (Integers[%d])",
					tc.name, workers, branched, p.Integers[tc.want], tc.want)
			}
		}
	}
}

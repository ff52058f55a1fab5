package verify

import (
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/lp"
	"repro/internal/milp"
	"repro/internal/nn"
)

// splitNet is y = relu(x0) + relu(4·x1) over the box [−1, 1]², cut by
// x0 ≤ 0 and x1 ≤ −1/2. Interval bounds read the box alone, so neuron A
// (x0) spans [−1, 1] and neuron B (4·x1) [−4, 4]; both get an indicator.
// The root relaxation puts each on its triangle's upper edge,
// p ≤ U·(z − L)/(U − L), at the largest z the rows allow:
//
//	A: z = 0,  d = 1/2, p = 1/2 — the most fractional indicator, error 1/2;
//	B: z = −2, d = 1/4, p = 1   — less fractional, but error 1 − max(0, −2) = 1.
func splitNet(t *testing.T) *Compiled {
	t.Helper()
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1, 0}, {0, 4}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := unitRegion(2)
	region.Linear = []LinearConstraint{
		{Coeffs: map[int]float64{0: 1}, Sense: lp.LE, RHS: 0, Name: "x0"},
		{Coeffs: map[int]float64{1: 1}, Sense: lp.LE, RHS: -0.5, Name: "x1"},
	}
	return compiled(t, net, region, false)
}

// TestBranchOnMostViolatedReLU pins the branching score on splitNet: the
// scores at the root's LP point, and that the root branches on B, the
// neuron whose relaxation is most violated, where the most fractional
// rule would branch on A. Every node after the root lies under the root's
// branch, so its indicator is integral at every later LP point. The
// search runs the production score through MaxLinear too.
func TestBranchOnMostViolatedReLU(t *testing.T) {
	c := splitNet(t)
	enc := c.enc.withModelClone()
	y := map[int]float64{0: 1}
	dA, dB := enc.binaries[0], enc.binaries[1]
	// points records every LP point offered to the heuristic: the root's
	// first, then every later fractional node's.
	run := func(score func([]float64, int) float64) [][]float64 {
		var points [][]float64
		opts := milp.Options{Workers: 1, Score: score, Heuristic: func(x, _ []float64) (float64, bool) {
			points = append(points, slices.Clone(x))
			return 0, false
		}}
		if _, err := solveObjective(context.Background(), enc, y, opts); err != nil {
			t.Fatal(err)
		}
		return points
	}

	points := run(enc.score)
	root := points[0]
	for _, tc := range []struct {
		name      string
		d, i      int
		ind, want float64
	}{
		{"A", dA, 0, 0.5, 0.5},
		{"B", dB, 1, 0.25, 1},
	} {
		if math.Abs(root[tc.d]-tc.ind) > 1e-12 {
			t.Errorf("neuron %s: root indicator %.15g, want %g", tc.name, root[tc.d], tc.ind)
		}
		if s := enc.score(root, tc.i); math.Abs(s-tc.want) > 1e-12 {
			t.Errorf("neuron %s: score %.15g, want %g", tc.name, s, tc.want)
		}
	}
	if len(points) < 2 {
		t.Fatalf("only %d fractional nodes", len(points))
	}
	for k, x := range points[1:] {
		if x[dB] != 0 && x[dB] != 1 {
			t.Errorf("score rule, node point %d: B's indicator %g, want the root's branch fixed", k+1, x[dB])
		}
	}
	points = run(nil)
	for k, x := range points[1:] {
		if x[dA] != 0 && x[dA] != 1 {
			t.Errorf("most fractional rule, node point %d: A's indicator %g, want the root's branch fixed", k+1, x[dA])
		}
	}

	// The production search: the heuristic's incumbent 0 at the root
	// (x = (0, −1/2)), then B's down child (A at 1/2), both of A's
	// children cut off at 0, and B's up child infeasible — five nodes,
	// where branching on A first takes seven.
	res, err := c.MaxLinear(context.Background(), y, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Proved || res.Value != 0 || res.Stats.Nodes != 5 {
		t.Fatalf("max: %v, value %g, %d nodes; want proved, 0, 5 nodes", res.Outcome, res.Value, res.Stats.Nodes)
	}
}

package verify

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
	"repro/internal/nn"
)

// vNet is y = relu(x0 + x1) + relu(x0 − x1) over x ∈ [−1, 1]²: both
// pre-activations span [−2, 2], so both neurons get an indicator. The
// root relaxation reaches y = x0 + 2 ≤ 3 at x0 = 1 with indicators at
// 3/4, a fractional point, while every input with x0 = 1 is worth exactly
// 2 — the maximum.
func vNet() *nn.Network {
	return &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1, 1}, {1, -1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
}

// offer runs the heuristic of one search on c on the model point whose
// inputs are in and whose other coordinates are 0.5, as a fractional node
// would carry.
func offer(c *Compiled, floor float64, in ...float64) (val float64, point []float64, ok bool) {
	y := map[int]float64{0: 1}
	x := make([]float64, c.enc.model.NumVariables())
	for v := range x {
		x[v] = 0.5
	}
	for i, v := range c.enc.inputs {
		x[v] = in[i]
	}
	point = make([]float64, len(x))
	val, ok = c.heuristic(c.enc, y, floor)(x, point)
	return val, point, ok
}

// TestHeuristicValuesClampedPoint pins the heuristic's incumbent on
// hand-computed cases: it is the forward pass at the input point clamped
// to the box, and the point it hands back carries the clamped inputs.
func TestHeuristicValuesClampedPoint(t *testing.T) {
	c := compiled(t, vNet(), unitRegion(2), false)
	for _, tc := range []struct {
		in, clamped []float64
		want        float64
	}{
		{in: []float64{0.5, 0.25}, clamped: []float64{0.5, 0.25}, want: 1},       // relu(0.75) + relu(0.25)
		{in: []float64{-0.5, 0.25}, clamped: []float64{-0.5, 0.25}, want: 0},     // both neurons off
		{in: []float64{1.25, -0.5}, clamped: []float64{1, -0.5}, want: 2},        // x0 clamped to 1
		{in: []float64{0.25, -3}, clamped: []float64{0.25, -1}, want: 1.25 + 0},  // relu(−0.75) + relu(1.25)
		{in: []float64{-2, 1 + 1e-7}, clamped: []float64{-1, 1}, want: 0 + 0},    // relu(0) + relu(−2)
		{in: []float64{0.75, 0.125}, clamped: []float64{0.75, 0.125}, want: 1.5}, // relu(0.875) + relu(0.625)
	} {
		val, point, ok := offer(c, math.Inf(-1), tc.in...)
		if !ok {
			t.Fatalf("%v: declined", tc.in)
		}
		if math.Abs(val-tc.want) > 1e-12 {
			t.Errorf("%v: value %.15g, want %g", tc.in, val, tc.want)
		}
		if fw := c.net.Forward(tc.clamped)[0]; val != fw {
			t.Errorf("%v: value %.17g, forward pass at %v %.17g", tc.in, val, tc.clamped, fw)
		}
		for i, v := range c.enc.inputs {
			if point[v] != tc.clamped[i] {
				t.Errorf("%v: point input %d = %g, want %g", tc.in, i, point[v], tc.clamped[i])
			}
		}
	}
}

// TestHeuristicRejectsLinearRow: with the region cut by x0 + x1 ≤ 0.5 the
// heuristic declines a point beyond the row and takes one on it.
func TestHeuristicRejectsLinearRow(t *testing.T) {
	region := unitRegion(2)
	region.Linear = []LinearConstraint{{Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 0.5, Name: "cut"}}
	c := compiled(t, vNet(), region, false)
	if val, _, ok := offer(c, math.Inf(-1), 0.5, 0.5); ok {
		t.Fatalf("x0 + x1 = 1 > 0.5 was taken, worth %g", val)
	}
	val, _, ok := offer(c, math.Inf(-1), 0.75, -0.25) // on the row
	if !ok || math.Abs(val-1.5) > 1e-12 {             // relu(0.5) + relu(1)
		t.Fatalf("a point on the row: ok %v, value %.15g, want 1.5", ok, val)
	}
	// A point beyond the row by less than regionTol still counts.
	if _, _, ok := offer(c, math.Inf(-1), 0.75, -0.25+regionTol/2); !ok {
		t.Fatal("a point within regionTol of the row was declined")
	}
}

// TestHeuristicThresholdFloor: a threshold proof takes only values at or
// above its floor, and the search that offers the root's fractional point
// finds the violation at node 1.
func TestHeuristicThresholdFloor(t *testing.T) {
	c := compiled(t, vNet(), unitRegion(2), false)
	if val, _, ok := offer(c, 1.5, 0.5, 0.25); ok { // worth 1
		t.Fatalf("a value of %g below the floor 1.5 was taken", val)
	}
	if val, _, ok := offer(c, 1.5, 0.75, 0.125); !ok || val != 1.5 { // worth exactly the floor
		t.Fatalf("a value at the floor: ok %v, value %g", ok, val)
	}
	if val, _, ok := offer(c, 1.5, 1, 0); !ok || math.Abs(val-2) > 1e-12 {
		t.Fatalf("a value above the floor: ok %v, value %g", ok, val)
	}

	ctx := context.Background()
	y := map[int]float64{0: 1}
	for _, workers := range []int{1, 2} {
		opts := Options{Workers: workers}
		res, err := c.ProveLinearUpperBound(ctx, y, 1.5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != Violated || math.Abs(res.Value-2) > 1e-12 || res.Stats.FirstIncumbentNode != 1 {
			t.Fatalf("workers=%d, y <= 1.5: %v, value %.15g, first incumbent at node %d; want violated, 2, node 1",
				workers, res.Outcome, res.Value, res.Stats.FirstIncumbentNode)
		}
		if fw := c.net.Forward(res.Witness)[0]; fw != res.Value {
			t.Fatalf("workers=%d: witness %v is worth %.17g, reported %.17g", workers, res.Witness, fw, res.Value)
		}
		held, err := c.ProveLinearUpperBound(ctx, y, 2.5, opts)
		if err != nil {
			t.Fatal(err)
		}
		if held.Outcome != Proved || held.Witness != nil || held.Stats.FirstIncumbentNode != 0 {
			t.Fatalf("workers=%d, y <= 2.5: %v, witness %v, first incumbent at node %d; want proved with none",
				workers, held.Outcome, held.Witness, held.Stats.FirstIncumbentNode)
		}
		best, err := c.MaxLinear(ctx, y, opts)
		if err != nil {
			t.Fatal(err)
		}
		if best.Outcome != Proved || math.Abs(best.Value-2) > 1e-12 || best.Stats.FirstIncumbentNode != 1 {
			t.Fatalf("workers=%d, max: %v, value %.15g, first incumbent at node %d; want proved, 2, node 1",
				workers, best.Outcome, best.Value, best.Stats.FirstIncumbentNode)
		}
	}
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// share of what is put back on purpose.
var raceEnabled bool

// TestHeuristicAllocatesNothing: the hook the workers share values a point
// without allocating once its pool is warm.
func TestHeuristicAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops values")
	}
	c := compiled(t, vNet(), unitRegion(2), false)
	h := c.heuristic(c.enc, map[int]float64{0: 1}, math.Inf(-1))
	x := make([]float64, c.enc.model.NumVariables())
	point := make([]float64, len(x))
	h(x, point)
	if n := testing.AllocsPerRun(100, func() { h(x, point) }); n != 0 {
		t.Fatalf("%g allocations per offered point", n)
	}
}

package bounds

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func randomNet(seed int64, in int, hidden []int, out int, act nn.Activation) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.New(nn.Config{
		Name: "r", InputDim: in, Hidden: hidden, OutputDim: out,
		HiddenAct: act, OutputAct: nn.Identity,
	}, rng)
}

func unitBox(n int) []Interval {
	box := make([]Interval, n)
	for i := range box {
		box[i] = Interval{-1, 1}
	}
	return box
}

func TestIntervalHelpers(t *testing.T) {
	iv := Interval{-2, 3}
	if iv.Width() != 5 {
		t.Fatalf("Width = %g", iv.Width())
	}
	if !iv.Contains(0) || iv.Contains(4) {
		t.Fatal("Contains broken")
	}
	if !iv.StraddlesZero() || (Interval{1, 2}).StraddlesZero() || (Interval{0, 2}).StraddlesZero() {
		t.Fatal("StraddlesZero broken")
	}
	if Point(2) != (Interval{2, 2}) {
		t.Fatal("Point broken")
	}
}

func TestPropagateDimMismatch(t *testing.T) {
	net := randomNet(1, 3, []int{4}, 2, nn.ReLU)
	if _, err := Propagate(net, unitBox(2)); err == nil {
		t.Fatal("want error on dim mismatch")
	}
}

func TestPropagateRejectsMalformedInterval(t *testing.T) {
	net := randomNet(1, 2, []int{3}, 1, nn.ReLU)
	box := unitBox(2)
	box[1] = Interval{2, -2}
	if _, err := Propagate(net, box); err == nil {
		t.Fatal("want error on inverted interval")
	}
}

// TestPropagateSound is the core property: for random networks and random
// points inside the box, every neuron's actual value lies inside its bound.
func TestPropagateSound(t *testing.T) {
	for _, act := range []nn.Activation{nn.ReLU, nn.Tanh} {
		for seed := int64(0); seed < 8; seed++ {
			net := randomNet(seed, 4, []int{7, 6, 5}, 3, act)
			box := unitBox(4)
			nb, err := Propagate(net, box)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 100))
			for s := 0; s < 200; s++ {
				x := make([]float64, 4)
				for i := range x {
					x[i] = rng.Float64()*2 - 1
				}
				tr := net.ForwardTrace(x)
				for li := range net.Layers {
					for j := range tr.Pre[li] {
						const tol = 1e-9
						if tr.Pre[li][j] < nb.Layers[li].Pre[j].Lo-tol || tr.Pre[li][j] > nb.Layers[li].Pre[j].Hi+tol {
							t.Fatalf("act=%v seed=%d: pre[%d][%d]=%g outside [%g,%g]",
								act, seed, li, j, tr.Pre[li][j], nb.Layers[li].Pre[j].Lo, nb.Layers[li].Pre[j].Hi)
						}
						if tr.Post[li][j] < nb.Layers[li].Post[j].Lo-tol || tr.Post[li][j] > nb.Layers[li].Post[j].Hi+tol {
							t.Fatalf("act=%v seed=%d: post[%d][%d]=%g outside [%g,%g]",
								act, seed, li, j, tr.Post[li][j], nb.Layers[li].Post[j].Lo, nb.Layers[li].Post[j].Hi)
						}
					}
				}
			}
		}
	}
}

func TestStableNeuronsCount(t *testing.T) {
	// One always-active neuron (bias 10), one dead (bias -10), one unstable.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {1}, {1}}, B: []float64{10, -10, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	nb, err := Propagate(net, []Interval{{-1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	stable, total := nb.StableNeurons()
	if total != 3 || stable != 2 {
		t.Fatalf("stable=%d total=%d, want 2/3", stable, total)
	}
}

func TestPropagateWithHintsIntersects(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.ReLU},
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	hints := [][]Interval{{{Lo: -0.5, Hi: 0.25}}}
	nb, err := PropagateWithHints(net, []Interval{{-1, 1}}, hints)
	if err != nil {
		t.Fatal(err)
	}
	if nb.Layers[0].Pre[0] != (Interval{-0.5, 0.25}) {
		t.Fatalf("hint not applied: %v", nb.Layers[0].Pre[0])
	}
	// Downstream: relu post in [0, 0.25]; output same.
	if nb.Output()[0].Hi != 0.25 {
		t.Fatalf("hint did not propagate: %v", nb.Output()[0])
	}
}

func TestWidthStatsMonotoneGrowth(t *testing.T) {
	// For a deep random ReLU net, average pre-activation width typically
	// grows with depth; at minimum the stats must be positive and finite.
	net := randomNet(9, 4, []int{8, 8, 8, 8}, 2, nn.ReLU)
	nb, err := Propagate(net, unitBox(4))
	if err != nil {
		t.Fatal(err)
	}
	ws := nb.WidthStats()
	if len(ws) != 5 {
		t.Fatalf("stats len %d", len(ws))
	}
	for i, w := range ws {
		if w <= 0 || math.IsInf(w, 0) || math.IsNaN(w) {
			t.Fatalf("width[%d] = %g", i, w)
		}
	}
}

func TestTanhPostBoundsWithinUnit(t *testing.T) {
	net := randomNet(11, 3, []int{5}, 1, nn.Tanh)
	nb, err := Propagate(net, unitBox(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range nb.Layers[0].Post {
		if iv.Lo < -1 || iv.Hi > 1 {
			t.Fatalf("tanh post interval %v outside [-1,1]", iv)
		}
	}
}

package verify_test

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/nn"
	"repro/internal/verify"
)

// ExampleCompiled_MaxLinear verifies a tiny hand-built network: the maximum
// of |x| = relu(x) + relu(−x) over [−1, 1] is 1.
func ExampleCompiled_MaxLinear() {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}}}
	ctx := context.Background()
	c, err := verify.Compile(ctx, net, region, false)
	if err != nil {
		panic(err)
	}
	res, err := c.MaxLinear(ctx, map[int]float64{0: 1}, verify.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("max=%.1f %v\n", res.Value, res.Outcome)
	// Output: max=1.0 proved
}

// ExampleCompiled_ProveLinearUpperBound proves a bound and exhibits a
// counterexample for a bound that does not hold — two queries, one Compile.
func ExampleCompiled_ProveLinearUpperBound() {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.ReLU},
		{W: [][]float64{{2}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}}}
	ctx := context.Background()
	c, err := verify.Compile(ctx, net, region, false)
	if err != nil {
		panic(err)
	}
	y := map[int]float64{0: 1}
	holds, _ := c.ProveLinearUpperBound(ctx, y, 2.5, verify.Options{})
	broken, _ := c.ProveLinearUpperBound(ctx, y, 1.5, verify.Options{})
	fmt.Printf("<=2.5: %v, <=1.5: %v (counterexample value %.1f)\n",
		holds.Outcome, broken.Outcome, broken.Value)
	// Output: <=2.5: proved, <=1.5: violated (counterexample value 2.0)
}

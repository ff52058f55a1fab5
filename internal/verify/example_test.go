package verify_test

import (
	"context"
	"fmt"

	"repro/internal/bounds"
	"repro/internal/nn"
	"repro/internal/verify"
)

// ExampleCompiled_MaxOutput verifies a tiny hand-built network: the maximum
// of |x| = relu(x) + relu(−x) over [−1, 1] is 1.
func ExampleCompiled_MaxOutput() {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}}}
	ctx := context.Background()
	c, err := verify.Compile(ctx, net, region, verify.Options{})
	if err != nil {
		panic(err)
	}
	res, err := c.MaxOutput(ctx, 0, verify.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("max=%.1f exact=%v\n", res.Value, res.Exact)
	// Output: max=1.0 exact=true
}

// ExampleCompiled_ProveUpperBound proves a bound and exhibits a
// counterexample for a bound that does not hold — two queries, one Compile.
func ExampleCompiled_ProveUpperBound() {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.ReLU},
		{W: [][]float64{{2}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}}}
	ctx := context.Background()
	c, err := verify.Compile(ctx, net, region, verify.Options{})
	if err != nil {
		panic(err)
	}
	holds, _ := c.ProveUpperBound(ctx, 0, 2.5, verify.Options{})
	broken, _ := c.ProveUpperBound(ctx, 0, 1.5, verify.Options{})
	fmt.Printf("<=2.5: %v, <=1.5: %v (counterexample value %.1f)\n",
		holds.Outcome, broken.Outcome, broken.CounterValue)
	// Output: <=2.5: proved, <=1.5: violated (counterexample value 2.0)
}

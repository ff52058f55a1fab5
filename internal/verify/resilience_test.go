package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/nn"
)

func TestResilienceLinearExact(t *testing.T) {
	// y = x on [-1, 1], nominal x0 = 0, threshold 0.5: the true resilience
	// radius is exactly 0.5.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	c := compiled(t, net, unitRegion(1), false)
	res, err := c.Resilience(context.Background(), []float64{0}, 0, 0.5, ResilienceOptions{MaxIterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Epsilon-0.5) > 0.01 {
		t.Fatalf("epsilon = %g, want ~0.5", res.Epsilon)
	}
	if res.Breaking == nil || res.BreakingValue <= 0.5 {
		t.Fatalf("breaking point missing or non-violating: %v -> %g", res.Breaking, res.BreakingValue)
	}
	if !res.Certified {
		t.Fatal("a positive radius was certified; Certified must be true")
	}
}

func TestResilienceWholeDomainSafe(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	c := compiled(t, net, unitRegion(1), false)
	res, err := c.Resilience(context.Background(), []float64{0}, 0, 5, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 1 || res.Breaking != nil {
		t.Fatalf("whole domain is safe: eps=%g breaking=%v", res.Epsilon, res.Breaking)
	}
	if res.Iterations != 1 {
		t.Fatalf("full-radius fast path not taken: %d iterations", res.Iterations)
	}
}

func TestResilienceValidation(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	c := compiled(t, net, unitRegion(1), false)
	for _, tc := range []struct {
		name      string
		x0        []float64
		out       int
		threshold float64
	}{
		{"dim mismatch", []float64{0, 0}, 0, 1},
		{"nominal outside domain", []float64{5}, 0, 1},
		{"violating nominal", []float64{0.9}, 0, 0.5},
		{"output index out of range", []float64{0}, 1, 1},
		{"negative output index", []float64{0}, -1, 1},
	} {
		if _, err := c.Resilience(context.Background(), tc.x0, tc.out, tc.threshold, ResilienceOptions{}); err == nil {
			t.Fatalf("%s accepted", tc.name)
		}
	}
}

func TestResilienceCertifiedRadiusIsSound(t *testing.T) {
	// Random ReLU net: inside the certified ball, dense sampling must never
	// violate the threshold.
	rng := rand.New(rand.NewSource(5))
	net := nn.New(nn.Config{Name: "r", InputDim: 2, Hidden: []int{6}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	dom := []bounds.Interval{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}}
	x0 := []float64{0.1, -0.2}
	thr := net.Forward(x0)[0] + 0.3
	c := compiled(t, net, &InputRegion{Box: dom}, false)
	res, err := c.Resilience(context.Background(), x0, 0, thr, ResilienceOptions{MaxIterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon <= 0 {
		t.Skip("no positive radius certified for this seed; nothing to sample")
	}
	for s := 0; s < 2000; s++ {
		x := []float64{
			math.Max(dom[0].Lo, math.Min(dom[0].Hi, x0[0]+(rng.Float64()*2-1)*res.Epsilon)),
			math.Max(dom[1].Lo, math.Min(dom[1].Hi, x0[1]+(rng.Float64()*2-1)*res.Epsilon)),
		}
		if v := net.Forward(x)[0]; v > thr+1e-6 {
			t.Fatalf("violation inside certified ball: %v -> %g > %g", x, v, thr)
		}
	}
}

// TestResilienceInterruptedIsNotCertified: a search whose only probe was
// interrupted established nothing and must say so — pkg/vnn reports
// Certified as Proved, the word a require_proved gate passes on.
func TestResilienceInterruptedIsNotCertified(t *testing.T) {
	net := randomReLUNet(41, 3, []int{8, 8}, 1)
	c := compiled(t, net, unitRegion(3), false)
	x0 := []float64{0, 0, 0}
	thr := net.Forward(x0)[0] + 0.05
	if c.OutputBounds()[0].Hi <= thr {
		t.Fatal("test net too tame: interval analysis alone proves the whole domain")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := c.Resilience(ctx, x0, 0, thr, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certified || res.Epsilon != 0 || res.Breaking != nil {
		t.Fatalf("cancelled search claims certified=%v eps=%g breaking=%v", res.Certified, res.Epsilon, res.Breaking)
	}
	if res.Iterations != 1 {
		t.Fatalf("cancelled search ran %d probes, want 1", res.Iterations)
	}
}

// TestResilienceReportsEffort: the probes' branch-and-bound work reaches the
// result, which is what the reply's nodes/lp_pivots and /metrics effort sum.
func TestResilienceReportsEffort(t *testing.T) {
	net := randomReLUNet(41, 3, []int{8, 8}, 1)
	c := compiled(t, net, unitRegion(3), false)
	x0 := []float64{0, 0, 0}
	res, err := c.Resilience(context.Background(), x0, 0, net.Forward(x0)[0]+0.05, ResilienceOptions{MaxIterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 2 || res.Stats.Nodes <= 0 || res.Stats.LPPivots <= 0 {
		t.Fatalf("%d probes reported %d nodes / %d pivots", res.Iterations, res.Stats.Nodes, res.Stats.LPPivots)
	}
	if res.Stats.HiddenNeurons != 16 || res.Stats.Elapsed <= 0 {
		t.Fatalf("stats not populated: %+v", res.Stats)
	}
}

// minOutput minimises one output the way pkg/vnn's MinOutput does: as the
// maximum of the negated output on the shared encoding.
func minOutput(t *testing.T, c *Compiled, outIndex int) float64 {
	t.Helper()
	res, err := c.MaxLinear(context.Background(), map[int]float64{outIndex: -1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != Proved {
		t.Fatal("min query not exact")
	}
	return -res.Value
}

func TestMinOutput(t *testing.T) {
	// y = relu(x) - 1 on [-1,1]: min = -1 (any x<=0), max = relu(1)-1 = 0.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.ReLU},
		{W: [][]float64{{1}}, B: []float64{-1}, Act: nn.Identity},
	}}
	c := compiled(t, net, unitRegion(1), false)
	mn := minOutput(t, c, 0)
	if math.Abs(mn+1) > 1e-6 {
		t.Fatalf("min = %g, want -1", mn)
	}
	mx, err := c.MaxLinear(context.Background(), map[int]float64{0: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mx.Value) > 1e-6 {
		t.Fatalf("max = %g, want 0", mx.Value)
	}
}

func TestMinMaxConsistencyRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 30))
		net := nn.New(nn.Config{Name: "m", InputDim: 2, Hidden: []int{5}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
		c := compiled(t, net, unitRegion(2), false)
		mn := minOutput(t, c, 1)
		mx, err := c.MaxLinear(context.Background(), map[int]float64{1: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if mn > mx.Value+1e-6 {
			t.Fatalf("seed %d: min %g > max %g", seed, mn, mx.Value)
		}
		// A random point's output must fall between them.
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		v := net.Forward(x)[1]
		if v < mn-1e-6 || v > mx.Value+1e-6 {
			t.Fatalf("seed %d: sample %g outside [%g, %g]", seed, v, mn, mx.Value)
		}
	}
}

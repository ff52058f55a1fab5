package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/nn"
)

func unitRegion(n int) *InputRegion {
	box := make([]bounds.Interval, n)
	for i := range box {
		box[i] = bounds.Interval{Lo: -1, Hi: 1}
	}
	return &InputRegion{Box: box}
}

func randomReLUNet(seed int64, in int, hidden []int, out int) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.New(nn.Config{
		Name: "v", InputDim: in, Hidden: hidden, OutputDim: out,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
}

// compiled is how the tests reach the engine: one Compile, fatal on error.
func compiled(t testing.TB, net *nn.Network, region *InputRegion, tighten bool) *Compiled {
	t.Helper()
	c, err := Compile(context.Background(), net, region, tighten)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// maxOutput compiles net over region and maximises one output under opts.
func maxOutput(t testing.TB, net *nn.Network, region *InputRegion, outIndex int, tighten bool, opts Options) *MaxResult {
	t.Helper()
	res, err := compiled(t, net, region, tighten).MaxLinear(context.Background(), map[int]float64{outIndex: 1}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// gridMax brute-forces the maximum output over a dense grid (lower bound on
// the true maximum; for piecewise-linear nets with fine grids it is close).
func gridMax(net *nn.Network, region *InputRegion, outIndex, steps int) float64 {
	n := net.InputDim()
	best := math.Inf(-1)
	idx := make([]int, n)
	x := make([]float64, n)
	for {
		ok := true
		for i := range idx {
			iv := region.Box[i]
			x[i] = iv.Lo + (iv.Hi-iv.Lo)*float64(idx[i])/float64(steps-1)
		}
		if region.Contains(x, 1e-12) {
			if v := net.Forward(x)[outIndex]; v > best {
				best = v
			}
		}
		// Odometer increment.
		for i := 0; ; i++ {
			if i == n {
				ok = false
				break
			}
			idx[i]++
			if idx[i] < steps {
				break
			}
			idx[i] = 0
		}
		if !ok {
			break
		}
	}
	return best
}

func TestMaxOutputHandBuilt(t *testing.T) {
	// y = relu(x) + relu(-x) = |x| on [-1, 1]: max is 1 at x = ±1.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	res := maxOutput(t, net, unitRegion(1), 0, false, Options{})
	if res.Outcome != Proved || math.Abs(res.Value-1) > 1e-6 {
		t.Fatalf("max = %g (%v), want 1", res.Value, res.Outcome)
	}
	if math.Abs(math.Abs(res.Witness[0])-1) > 1e-6 {
		t.Fatalf("witness = %v, want ±1", res.Witness)
	}
	// Witness replay must reproduce the reported value.
	if v := net.Forward(res.Witness)[0]; math.Abs(v-res.Value) > 1e-6 {
		t.Fatalf("witness replay %g != reported %g", v, res.Value)
	}
}

func TestMaxOutputAgainstBruteForce(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := randomReLUNet(seed, 2, []int{5, 4}, 1)
		region := unitRegion(2)
		res := maxOutput(t, net, region, 0, false, Options{})
		if res.Outcome != Proved {
			t.Fatalf("seed %d: not exact", seed)
		}
		bf := gridMax(net, region, 0, 81)
		if bf > res.Value+1e-5 {
			t.Fatalf("seed %d: grid point %g beats MILP max %g (unsound!)", seed, bf, res.Value)
		}
		if res.Value > bf+0.5 {
			t.Fatalf("seed %d: MILP max %g implausibly above grid %g", seed, res.Value, bf)
		}
		if v := net.Forward(res.Witness)[0]; math.Abs(v-res.Value) > 1e-5 {
			t.Fatalf("seed %d: witness replay %g != %g", seed, v, res.Value)
		}
		if !region.Contains(res.Witness, 1e-6) {
			t.Fatalf("seed %d: witness outside region", seed)
		}
	}
}

func TestMaxOutputRespectsLinearConstraint(t *testing.T) {
	// Maximize y = relu(x0) + relu(x1) on the unit box with x0 + x1 <= -0.5.
	// Both inputs positive is infeasible, so one term is zero and the other
	// is at most -0.5 - (-1) = 0.5.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1, 0}, {0, 1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := unitRegion(2)
	region.Linear = []LinearConstraint{{
		Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: -0.5, Name: "cap",
	}}
	res := maxOutput(t, net, region, 0, false, Options{})
	if math.Abs(res.Value-0.5) > 1e-6 {
		t.Fatalf("max = %g, want 0.5", res.Value)
	}
	if !region.Contains(res.Witness, 1e-6) {
		t.Fatal("witness violates linear constraint")
	}
}

func TestProveUpperBoundProves(t *testing.T) {
	net := randomReLUNet(3, 2, []int{6}, 1)
	region := unitRegion(2)
	mx := maxOutput(t, net, region, 0, false, Options{})
	pr, err := compiled(t, net, region, false).ProveLinearUpperBound(context.Background(), map[int]float64{0: 1}, mx.Value+0.1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Outcome != Proved {
		t.Fatalf("outcome = %v, want proved (threshold above max %g)", pr.Outcome, mx.Value)
	}
}

func TestProveUpperBoundFindsCounterexample(t *testing.T) {
	net := randomReLUNet(4, 2, []int{6}, 1)
	region := unitRegion(2)
	mx := maxOutput(t, net, region, 0, false, Options{})
	thr := mx.Value - 0.2
	pr, err := compiled(t, net, region, false).ProveLinearUpperBound(context.Background(), map[int]float64{0: 1}, thr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Outcome != Violated {
		t.Fatalf("outcome = %v, want violated (threshold %g below max %g)", pr.Outcome, thr, mx.Value)
	}
	if pr.Value <= thr {
		t.Fatalf("counterexample value %g does not exceed threshold %g", pr.Value, thr)
	}
	if !region.Contains(pr.Witness, 1e-6) {
		t.Fatal("counterexample outside region")
	}
	// The counterexample must be real: its value is its forward pass.
	if v := net.Forward(pr.Witness)[0]; v != pr.Value {
		t.Fatalf("counter value mismatch: %g vs %g", v, pr.Value)
	}
}

func TestProveUpperBoundIntervalFastPath(t *testing.T) {
	net := randomReLUNet(5, 2, []int{4}, 1)
	region := unitRegion(2)
	nb, err := bounds.Propagate(net, region.Box)
	if err != nil {
		t.Fatal(err)
	}
	// Far above the interval bound: must prove without any MILP nodes.
	pr, err := compiled(t, net, region, false).ProveLinearUpperBound(context.Background(), map[int]float64{0: 1}, nb.Output()[0].Hi+1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Outcome != Proved || pr.Stats.Nodes != 0 {
		t.Fatalf("fast path not taken: outcome=%v nodes=%d", pr.Outcome, pr.Stats.Nodes)
	}
}

// TestProveInfiniteThresholds: a threshold proof takes any threshold but
// NaN. +Inf holds by the interval bound alone, every point violates -Inf,
// on the unit-coefficient floor and on the prove.floor row alike.
func TestProveInfiniteThresholds(t *testing.T) {
	net := randomReLUNet(5, 2, []int{4}, 2)
	c := compiled(t, net, unitRegion(2), false)
	ctx := context.Background()
	for _, coeffs := range []map[int]float64{{0: 1}, {0: 1, 1: -2}} {
		up, err := c.ProveLinearUpperBound(ctx, coeffs, math.Inf(1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if up.Outcome != Proved || up.Stats.Nodes != 0 || up.UpperBound != c.enc.intervalBound(coeffs) {
			t.Fatalf("%v ≤ +Inf: outcome %v, %d nodes, bound %g", coeffs, up.Outcome, up.Stats.Nodes, up.UpperBound)
		}
		down, err := c.ProveLinearUpperBound(ctx, coeffs, math.Inf(-1), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if down.Outcome != Violated || down.Witness == nil || down.UpperBound < down.Value {
			t.Fatalf("%v ≤ -Inf: outcome %v, witness %v, bracket [%g, %g]", coeffs, down.Outcome, down.Witness, down.Value, down.UpperBound)
		}
	}
	if _, err := c.ProveLinearUpperBound(ctx, map[int]float64{0: 1}, math.NaN(), Options{}); err == nil {
		t.Fatal("a NaN threshold was accepted")
	}
}

func TestTightenLPPreservesAnswers(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		net := randomReLUNet(seed+10, 3, []int{6, 5}, 1)
		region := unitRegion(3)
		plain := maxOutput(t, net, region, 0, false, Options{})
		tight := maxOutput(t, net, region, 0, true, Options{})
		if math.Abs(plain.Value-tight.Value) > 1e-5 {
			t.Fatalf("seed %d: tightened answer %g != plain %g", seed, tight.Value, plain.Value)
		}
		if tight.Stats.StableNeurons < plain.Stats.StableNeurons {
			t.Fatalf("seed %d: tightening lost stability (%d < %d)", seed, tight.Stats.StableNeurons, plain.Stats.StableNeurons)
		}
	}
}

func TestTightenLPBoundsStillSound(t *testing.T) {
	net := randomReLUNet(22, 3, []int{6, 6}, 1)
	region := unitRegion(3)
	nb, err := bounds.Propagate(net, region.Box)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := TightenLPWorkers(net, region, nb, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for s := 0; s < 300; s++ {
		x := make([]float64, 3)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		tr := net.ForwardTrace(x)
		for li := range net.Layers {
			for j, z := range tr.Pre[li] {
				iv := tight.Layers[li].Pre[j]
				if z < iv.Lo-1e-6 || z > iv.Hi+1e-6 {
					t.Fatalf("tightened bound unsound: layer %d neuron %d: %g outside [%g,%g]", li, j, z, iv.Lo, iv.Hi)
				}
			}
		}
	}
}

func TestTanhRejected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.New(nn.Config{Name: "t", InputDim: 2, Hidden: []int{3}, OutputDim: 1, HiddenAct: nn.Tanh, OutputAct: nn.Identity}, rng)
	if _, err := Compile(context.Background(), net, unitRegion(2), false); err == nil {
		t.Fatal("tanh network must be rejected")
	}
}

func TestBadOutputIndex(t *testing.T) {
	c := compiled(t, randomReLUNet(1, 2, []int{3}, 1), unitRegion(2), false)
	if _, err := c.MaxLinear(context.Background(), map[int]float64{5: 1}, Options{}); err == nil {
		t.Fatal("want error for bad output index")
	}
	if _, err := c.ProveLinearUpperBound(context.Background(), map[int]float64{-1: 1}, 0, Options{}); err == nil {
		t.Fatal("want error for negative output index")
	}
}

func TestEmptyRegionRejected(t *testing.T) {
	net := randomReLUNet(2, 2, []int{3}, 1)
	region := unitRegion(2)
	region.Linear = []LinearConstraint{
		{Coeffs: map[int]float64{0: 1}, Sense: lp.GE, RHS: 5, Name: "impossible"},
	}
	if _, err := compiled(t, net, region, false).MaxLinear(context.Background(), map[int]float64{0: 1}, Options{}); err == nil {
		t.Fatal("empty region should error")
	}
}

func TestTimeoutOutcome(t *testing.T) {
	net := randomReLUNet(6, 6, []int{14, 14, 14}, 1)
	region := unitRegion(6)
	c, err := Compile(context.Background(), net, region, false)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	res, err := c.MaxLinear(ctx, map[int]float64{0: 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome == Proved {
		t.Fatal("microsecond budget should not produce an exact answer")
	}
	pr, err := c.ProveLinearUpperBound(ctx, map[int]float64{0: 1}, 0.0001, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if pr.Outcome == Proved {
		// Only acceptable if the interval fast path fired (possible but
		// unlikely for threshold barely above zero); verify that.
		nb, _ := bounds.Propagate(net, region.Box)
		if nb.Output()[0].Hi > 0.0001 {
			t.Fatalf("claimed proof without resources (interval hi=%g)", nb.Output()[0].Hi)
		}
	}
}

func TestMaxOverOutputs(t *testing.T) {
	// Two outputs: y0 = x, y1 = -x on [-1,1]; max over both should be 1.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: nn.ReLU},
		{W: [][]float64{{1, 0}, {0, 1}}, B: []float64{0, 0}, Act: nn.Identity},
	}}
	c := compiled(t, net, unitRegion(1), false)
	res, err := c.MaxOverOutputs(context.Background(), []int{0, 1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-1) > 1e-6 {
		t.Fatalf("max over outputs = %g, want 1", res.Value)
	}
	if _, err := c.MaxOverOutputs(context.Background(), nil, Options{}); err == nil {
		t.Fatal("want error for empty output list")
	}
}

func TestRegionContains(t *testing.T) {
	region := unitRegion(2)
	region.Linear = []LinearConstraint{
		{Coeffs: map[int]float64{0: 1, 1: -1}, Sense: lp.EQ, RHS: 0, Name: "diag"},
	}
	if !region.Contains([]float64{0.5, 0.5}, 1e-9) {
		t.Fatal("diagonal point should be inside")
	}
	if region.Contains([]float64{0.5, 0.4}, 1e-9) {
		t.Fatal("off-diagonal point should be outside")
	}
	if region.Contains([]float64{2, 2}, 1e-9) {
		t.Fatal("outside box should be outside")
	}
}

// TestRegionContainsOrderIndependent: a row whose sum depends on the order
// of its terms gets the same answer on every call. Summed in ascending
// input index, 1e17 − 1e17 + 1 = 1 > 0.5 lies outside the row; an order
// that adds 1 to 1e17 first loses it and would take the point.
func TestRegionContainsOrderIndependent(t *testing.T) {
	region := unitRegion(3)
	region.Linear = []LinearConstraint{
		{Coeffs: map[int]float64{0: 1e17, 1: -1e17, 2: 1}, Sense: lp.LE, RHS: 0.5, Name: "cancel"},
	}
	x := []float64{1, 1, 1}
	for call := 0; call < 200; call++ {
		if region.Contains(x, regionTol) {
			t.Fatalf("call %d: took a point whose row sums to 1 in input order, above 0.5", call)
		}
	}
}

func TestStatsPopulated(t *testing.T) {
	net := randomReLUNet(8, 2, []int{5}, 1)
	res := maxOutput(t, net, unitRegion(2), 0, false, Options{})
	if res.Stats.HiddenNeurons != 5 {
		t.Fatalf("hidden neurons = %d, want 5", res.Stats.HiddenNeurons)
	}
	if res.Stats.Binaries+res.Stats.StableNeurons != 5 {
		t.Fatalf("binaries %d + stable %d != 5", res.Stats.Binaries, res.Stats.StableNeurons)
	}
	if res.Stats.Elapsed <= 0 {
		t.Fatal("elapsed not recorded")
	}
}

// TestLadderOrdering verifies the precision ladder on random networks: the
// linear-time interval bound never undercuts the exact maximum, and the
// exact maximum is achievable (witnessed).
func TestLadderOrdering(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := randomReLUNet(seed+200, 3, []int{6, 5}, 1)
		c := compiled(t, net, unitRegion(3), false)
		exact, err := c.MaxLinear(context.Background(), map[int]float64{0: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if exact.Outcome != Proved {
			t.Fatalf("seed %d: exact bound inconclusive", seed)
		}
		if interval := c.OutputBounds()[0].Hi; interval < exact.Value-1e-6 {
			t.Fatalf("seed %d: interval %g below exact %g (interval must over-approximate)", seed, interval, exact.Value)
		}
		if v := net.Forward(exact.Witness)[0]; math.Abs(v-exact.Value) > 1e-6 {
			t.Fatalf("seed %d: witness replay %g != exact %g", seed, v, exact.Value)
		}
	}
}

// TestLadderStrictGapExists finds at least one network where the exact rung
// is strictly tighter than the interval one — otherwise branch-and-bound
// would be pointless.
func TestLadderStrictGapExists(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		net := randomReLUNet(seed+300, 3, []int{7, 6}, 1)
		c := compiled(t, net, unitRegion(3), false)
		exact, err := c.MaxLinear(context.Background(), map[int]float64{0: 1}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if c.OutputBounds()[0].Hi > exact.Value+1e-4 {
			return
		}
	}
	t.Fatal("interval bound never strictly looser than exact over 8 nets")
}

// TestRelaxationTightWhenAllStable: every neuron is stable on the region
// (biases push pre-activations away from zero), so no indicator exists, the
// MILP is its own LP relaxation and the root node settles it.
func TestRelaxationTightWhenAllStable(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{10, -10}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	// Output = relu(x+10) + relu(-x-10) = x + 10 on [-1,1]: max 11.
	res := maxOutput(t, net, unitRegion(1), 0, false, Options{})
	if res.Outcome != Proved || math.Abs(res.Value-11) > 1e-6 {
		t.Fatalf("exact = %g (%v), want 11", res.Value, res.Outcome)
	}
	if res.Stats.Binaries != 0 || res.Stats.Nodes != 1 {
		t.Fatalf("%d binaries, %d nodes: want none and the root only", res.Stats.Binaries, res.Stats.Nodes)
	}
}

// TestLinearIntervalBoundRunToRunStable: the interval bound of a multi-term
// functional is both a reported number (a fast-path proof's UpperBound) and
// a fast-path verdict, so it must not depend on Go's randomised map
// iteration order.
func TestLinearIntervalBoundRunToRunStable(t *testing.T) {
	c := compiled(t, randomReLUNet(9, 3, []int{8}, 6), unitRegion(3), false)
	rng := rand.New(rand.NewSource(9))
	bound := func(coeffs map[int]float64) float64 {
		pr, err := c.ProveLinearUpperBound(context.Background(), coeffs, 1e300, Options{})
		if err != nil || pr.Outcome != Proved || pr.Stats.Solves != 0 {
			t.Fatalf("fast path not taken: %+v, %v", pr, err)
		}
		return pr.UpperBound
	}
	for f := 0; f < 20; f++ {
		coeffs := make(map[int]float64, 6)
		for oi := 0; oi < 6; oi++ {
			coeffs[oi] = rng.NormFloat64()
		}
		first := bound(coeffs)
		for call := 1; call < 100; call++ {
			if got := bound(coeffs); got != first {
				t.Fatalf("functional %d: call %d returned %.17g, call 0 returned %.17g", f, call, got, first)
			}
		}
	}
}

// TestWitnessValuedByForwardPass: h = relu(2e6·x − 1e6), y = h, on x ∈ [0, 1]
// cut to x ≤ 1e-7, where y = 0 everywhere. The big-M relaxation reaches
// y = 0.1 at x = 1e-7 with the indicator at 1e-7, inside the solver's
// integrality tolerance, so the leaf's LP value is 0.1. A witness is worth
// its forward pass: the maximum is 0, and a 0.05 threshold is not violated.
func TestWitnessValuedByForwardPass(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{2e6}}, B: []float64{-1e6}, Act: nn.ReLU},
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := &InputRegion{
		Box:    []bounds.Interval{{Lo: 0, Hi: 1}},
		Linear: []LinearConstraint{{Coeffs: map[int]float64{0: 1}, Sense: lp.LE, RHS: 1e-7, Name: "cut"}},
	}
	c := compiled(t, net, region, false)
	y := map[int]float64{0: 1}
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		threshold float64 // 0: a max query
		want      Outcome
		bound     float64 // wanted UpperBound; NaN: only ≥ Value
	}{
		{"max", 0, Proved, math.NaN()},
		{"at_most 0.05", 0.05, Inconclusive, 0.1},
		{"at_most 0.2", 0.2, Proved, 0.2},
	} {
		var res *MaxResult
		var err error
		if tc.threshold == 0 {
			res, err = c.MaxLinear(ctx, y, Options{})
		} else {
			res, err = c.ProveLinearUpperBound(ctx, y, tc.threshold, Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != tc.want {
			t.Fatalf("%s: outcome %v (value %g, witness %v), want %v", tc.name, res.Outcome, res.Value, res.Witness, tc.want)
		}
		if res.Witness != nil && net.Forward(res.Witness)[0] != res.Value {
			t.Fatalf("%s: witness %v replays to %g, reported %g", tc.name, res.Witness, net.Forward(res.Witness)[0], res.Value)
		}
		if tc.threshold == 0 && (res.Witness == nil || res.Value != 0) {
			t.Fatalf("%s: value %g at %v, want a witness worth 0", tc.name, res.Value, res.Witness)
		}
		if res.UpperBound < res.Value || !math.IsNaN(tc.bound) && math.Abs(res.UpperBound-tc.bound) > 1e-9 {
			t.Fatalf("%s: upper bound %g (value %g), want %g", tc.name, res.UpperBound, res.Value, tc.bound)
		}
	}
}

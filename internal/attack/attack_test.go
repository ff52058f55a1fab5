package attack

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/nn"
	"repro/internal/verify"
)

func unitRegion(n int) *verify.InputRegion {
	box := make([]bounds.Interval, n)
	for i := range box {
		box[i] = bounds.Interval{Lo: -1, Hi: 1}
	}
	return &verify.InputRegion{Box: box}
}

// verifiedMax is the complete verifier's answer the attack is held against.
func verifiedMax(t *testing.T, net *nn.Network, region *verify.InputRegion) float64 {
	t.Helper()
	ctx := context.Background()
	c, err := verify.Compile(ctx, net, region, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.MaxLinear(ctx, map[int]float64{0: 1}, verify.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != verify.Proved {
		t.Fatal("verifier did not conclude")
	}
	return res.Value
}

func randomNet(seed int64, in int, hidden []int) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.New(nn.Config{
		Name: "a", InputDim: in, Hidden: hidden, OutputDim: 1,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
}

func TestMaximizeFindsLinearOptimum(t *testing.T) {
	// y = 2x0 - x1 on [-1,1]^2: max 3 at (1,-1); PGD must land there.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{2, -1}}, B: []float64{0}, Act: nn.Identity},
	}}
	res, err := Maximize(net, unitRegion(2), 0, rand.New(rand.NewSource(1)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-3) > 1e-9 {
		t.Fatalf("attack value %g, want 3", res.Value)
	}
	if math.Abs(res.Best[0]-1) > 1e-9 || math.Abs(res.Best[1]+1) > 1e-9 {
		t.Fatalf("attack point %v, want (1,-1)", res.Best)
	}
}

// TestAttackNeverBeatsVerifier is the soundness relation between the
// incomplete attack and the complete MILP: the attack's best value is a
// lower bound on the verified maximum.
func TestAttackNeverBeatsVerifier(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		net := randomNet(seed, 3, []int{6, 5})
		region := unitRegion(3)
		atk, err := Maximize(net, region, 0, rand.New(rand.NewSource(seed+50)), Options{Restarts: 10, Steps: 80})
		if err != nil {
			t.Fatal(err)
		}
		ver := verifiedMax(t, net, region)
		if atk.Value > ver+1e-5 {
			t.Fatalf("seed %d: attack %g beats verified max %g (verifier unsound or attack out of region)",
				seed, atk.Value, ver)
		}
		// The attack point must replay and stay inside the region.
		if !region.Contains(atk.Best, 1e-9) {
			t.Fatalf("seed %d: attack point escaped the region", seed)
		}
		if v := net.Forward(atk.Best)[0]; math.Abs(v-atk.Value) > 1e-9 {
			t.Fatalf("seed %d: attack value does not replay: %g vs %g", seed, v, atk.Value)
		}
	}
}

func TestAttackUsuallyNearVerifiedMax(t *testing.T) {
	// On small nets PGD with restarts should get within 20% of the optimum
	// most of the time; we assert it for a fixed seed set.
	close := 0
	for seed := int64(0); seed < 5; seed++ {
		net := randomNet(seed+100, 2, []int{5})
		region := unitRegion(2)
		atk, err := Maximize(net, region, 0, rand.New(rand.NewSource(seed)), Options{Restarts: 12, Steps: 100})
		if err != nil {
			t.Fatal(err)
		}
		ver := verifiedMax(t, net, region)
		span := math.Max(1e-9, math.Abs(ver))
		if (ver-atk.Value)/span < 0.2 {
			close++
		}
	}
	if close < 3 {
		t.Fatalf("attack close to optimum only %d/5 times", close)
	}
}

// TestFalsify uses Maximize the way a falsifier does: a threshold is
// violated when the attack's value exceeds it, and the input reaching the
// value is the counterexample.
func TestFalsify(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	res, err := Maximize(net, unitRegion(1), 0, rand.New(rand.NewSource(2)), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value <= 0.5 {
		t.Fatal("violation of y<=0.5 exists (y can reach 1) but was not found")
	}
	if net.Forward(res.Best)[0] <= 0.5 {
		t.Fatal("counterexample does not violate the threshold")
	}
	if res.Value > 2.0 {
		t.Fatal("claimed violation of an unviolable bound")
	}
}

func TestRegionWithLinearConstraintSampling(t *testing.T) {
	region := unitRegion(2)
	region.Linear = []verify.LinearConstraint{{
		Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 0, Name: "half",
	}}
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	res, err := Maximize(net, region, 0, rand.New(rand.NewSource(3)), Options{Restarts: 20, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Starting points respect the constraint; box-projected PGD may walk
	// out of the halfspace, but the reported best must have been evaluated,
	// and for this aligned objective the best stays feasible only if the
	// implementation tracks values correctly. Just assert it replays.
	if v := net.Forward(res.Best)[0]; math.Abs(v-res.Value) > 1e-9 {
		t.Fatal("best does not replay")
	}
}

func TestValidationErrors(t *testing.T) {
	net := randomNet(1, 2, []int{3})
	if _, err := Maximize(net, unitRegion(3), 0, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := Maximize(net, unitRegion(2), 7, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Fatal("bad output index accepted")
	}
	if _, err := Maximize(net, unitRegion(2), 0, nil, Options{}); err == nil {
		t.Fatal("nil rng accepted")
	}
	impossible := unitRegion(2)
	impossible.Linear = []verify.LinearConstraint{{
		Coeffs: map[int]float64{0: 1}, Sense: lp.GE, RHS: 5, Name: "no",
	}}
	if _, err := Maximize(net, impossible, 0, rand.New(rand.NewSource(1)), Options{}); err == nil {
		t.Fatal("empty region accepted")
	}
}

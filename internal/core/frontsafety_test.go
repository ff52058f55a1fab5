package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/highway"
	"repro/pkg/vnn"
)

func TestFrontCloseRegionPins(t *testing.T) {
	r := vnn.FrontCloseRegion()
	if len(r.Box) != highway.FeatureDim {
		t.Fatalf("box dim %d", len(r.Box))
	}
	p := highway.NeighborFeature(highway.Front, highway.NPPresence)
	if r.Box[p].Lo != 1 || r.Box[p].Hi != 1 {
		t.Fatal("front presence not pinned")
	}
	g := highway.NeighborFeature(highway.Front, highway.NPGap)
	if r.Box[g].Hi != vnn.FrontGapClose {
		t.Fatalf("front gap hi = %g", r.Box[g].Hi)
	}
	// A real close-front scene must fall inside the region.
	cfg := highway.DefaultConfig()
	cfg.NumVehicles = 2
	s, err := highway.NewSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := s.Vehicles[0], s.Vehicles[1]
	a.Lane, a.TargetLane, a.Pos, a.Speed = 0, 0, 100, 30
	b.Lane, b.TargetLane, b.Pos, b.Speed = 0, 0, 100+10+b.Length, 25
	x := s.Observe(a).Encode()
	if !r.Contains(x, 1e-9) {
		t.Fatal("close-front scene outside the region")
	}
}

func TestMuLongOutputs(t *testing.T) {
	p := NewPredictorNet(1, 4, 2, 1)
	idx := p.MuLongOutputs()
	if len(idx) != 2 || idx[0] != 2 || idx[1] != 7 {
		t.Fatalf("MuLongOutputs = %v", idx)
	}
}

func TestVerifyFrontSafety(t *testing.T) {
	p := NewPredictorNet(2, 6, 2, 17)
	res, err := p.VerifyFrontSafety(testCtx(t, 30*time.Second), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("small predictor should verify exactly")
	}
	// Witness must be a close-front scenario achieving the value.
	if res.Witness == nil || !vnn.FrontCloseRegion().Contains(res.Witness, 1e-6) {
		t.Fatal("witness invalid")
	}
	raw := p.Net.Forward(res.Witness)
	best := math.Inf(-1)
	for _, i := range p.MuLongOutputs() {
		best = math.Max(best, raw[i])
	}
	if math.Abs(best-res.Value) > 1e-5 {
		t.Fatalf("witness value %g != reported %g", best, res.Value)
	}
}

func TestProveFrontSafetyBound(t *testing.T) {
	p := NewPredictorNet(2, 6, 2, 18)
	mx, err := p.VerifyFrontSafety(context.Background(), vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	outcome, _, err := p.ProveFrontSafetyBound(context.Background(), mx.Value+0.25, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != vnn.Proved {
		t.Fatalf("outcome %v above the max", outcome)
	}
	outcome, results, err := p.ProveFrontSafetyBound(context.Background(), mx.Value-0.25, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if outcome != vnn.Violated {
		t.Fatalf("outcome %v below the max", outcome)
	}
	// The violating component must carry a genuine counterexample.
	for _, r := range results {
		if r.Outcome == vnn.Violated && r.Value <= mx.Value-0.25 {
			t.Fatal("counterexample does not violate")
		}
	}
}

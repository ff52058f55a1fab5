package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TestParallelMatchesSequential checks that concurrent MaxOverOutputs
// returns exactly the sequential answer (the MILPs are independent; only
// scheduling differs). Workers is pinned explicitly so the inner engines
// are identical regardless of the machine's core count — with the auto
// value, Parallel mode deliberately divides the core budget per query.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := nn.New(nn.Config{
		Name: "p", InputDim: 4, Hidden: []int{8, 6}, OutputDim: 5,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
	region := unitRegion(4)
	outs := []int{0, 1, 2, 3, 4}
	c := compiled(t, net, region, Options{})
	seq, err := c.MaxOverOutputs(context.Background(), outs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.MaxOverOutputs(context.Background(), outs, Options{Parallel: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Exact || !par.Exact {
		t.Fatalf("exactness differs or lost: seq=%v par=%v", seq.Exact, par.Exact)
	}
	if math.Abs(seq.Value-par.Value) > 1e-9 {
		t.Fatalf("parallel value %g != sequential %g", par.Value, seq.Value)
	}
	if seq.Stats.Nodes != par.Stats.Nodes {
		t.Fatalf("node counts differ: %d vs %d (solves should be deterministic)", seq.Stats.Nodes, par.Stats.Nodes)
	}
	// Both witnesses must replay to the same maximum.
	if v := net.Forward(par.Witness)[argBest(net, par.Witness, outs)]; math.Abs(v-par.Value) > 1e-6 {
		t.Fatalf("parallel witness does not replay: %g vs %g", v, par.Value)
	}
}

func argBest(net *nn.Network, x []float64, outs []int) int {
	raw := net.Forward(x)
	best := outs[0]
	for _, o := range outs {
		if raw[o] > raw[best] {
			best = o
		}
	}
	return best
}

// TestWorkersMatchSequentialVerify pins the parallel warm-started MILP
// engine against the sequential one on real verification queries: identical
// exactness and objectives, with and without LP bound tightening.
func TestWorkersMatchSequentialVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	net := nn.New(nn.Config{
		Name: "w", InputDim: 4, Hidden: []int{8, 6}, OutputDim: 3,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
	region := unitRegion(4)
	for _, tighten := range []bool{false, true} {
		seq := maxOutput(t, net, region, 0, Options{Workers: 1, Tighten: tighten})
		for _, w := range []int{2, 3} {
			par := maxOutput(t, net, region, 0, Options{Workers: w, Tighten: tighten})
			if !seq.Exact || !par.Exact {
				t.Fatalf("tighten=%v workers=%d: exactness lost: seq=%v par=%v", tighten, w, seq.Exact, par.Exact)
			}
			if math.Abs(seq.Value-par.Value) > 1e-9 {
				t.Fatalf("tighten=%v workers=%d: value %.12g != sequential %.12g", tighten, w, par.Value, seq.Value)
			}
			if v := net.Forward(par.Witness)[0]; math.Abs(v-par.Value) > 1e-6 {
				t.Fatalf("tighten=%v workers=%d: witness does not replay: %g vs %g", tighten, w, v, par.Value)
			}
		}
	}
}

// TestParallelRace runs the parallel path repeatedly; under `go test -race`
// this catches data races in the shared encoder/solver paths.
func TestParallelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	net := nn.New(nn.Config{
		Name: "r", InputDim: 3, Hidden: []int{6}, OutputDim: 4,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
	region := unitRegion(3)
	for i := 0; i < 5; i++ {
		c := compiled(t, net, region, Options{})
		if _, err := c.MaxOverOutputs(context.Background(), []int{0, 1, 2, 3}, Options{Parallel: true}); err != nil {
			t.Fatal(err)
		}
	}
}

package verify

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/nn"
)

// TestParallelMatchesSequential checks MaxOverOutputs on the parallel
// engine (Workers 2) against the sequential one (Workers 1): the same
// exactness and maximum to solver tolerance. At a fixed worker count it
// is exactly the fold of its per-output searches: the largest value,
// effort summed.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := nn.New(nn.Config{
		Name: "p", InputDim: 4, Hidden: []int{8, 6}, OutputDim: 5,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
	region := unitRegion(4)
	outs := []int{0, 1, 2, 3, 4}
	c := compiled(t, net, region, false)
	seq, err := c.MaxOverOutputs(context.Background(), outs, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := c.MaxOverOutputs(context.Background(), outs, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Outcome != Proved || par.Outcome != Proved {
		t.Fatalf("exactness differs or lost: seq=%v par=%v", seq.Outcome, par.Outcome)
	}
	if math.Abs(seq.Value-par.Value) > 1e-9 {
		t.Fatalf("parallel value %g != sequential %g", par.Value, seq.Value)
	}
	fold := &MaxResult{Value: math.Inf(-1)}
	for _, o := range outs {
		r, err := c.MaxLinear(context.Background(), map[int]float64{o: 1}, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		fold.Value = math.Max(fold.Value, r.Value)
		fold.Stats.add(r.Stats)
	}
	if fold.Value != par.Value || fold.Stats.Nodes != par.Stats.Nodes || fold.Stats.LPPivots != par.Stats.LPPivots {
		t.Fatalf("MaxOverOutputs %g %d/%d is not its searches' fold %g %d/%d (solves should be deterministic)",
			par.Value, par.Stats.Nodes, par.Stats.LPPivots, fold.Value, fold.Stats.Nodes, fold.Stats.LPPivots)
	}
	// The witness replays exactly: Value is its forward pass.
	if v := net.Forward(par.Witness)[argBest(net, par.Witness, outs)]; v != par.Value {
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
		seq := maxOutput(t, net, region, 0, tighten, Options{Workers: 1})
		for _, w := range []int{2, 3} {
			par := maxOutput(t, net, region, 0, tighten, Options{Workers: w})
			if seq.Outcome != Proved || par.Outcome != Proved {
				t.Fatalf("tighten=%v workers=%d: exactness lost: seq=%v par=%v", tighten, w, seq.Outcome, par.Outcome)
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

// TestParallelRace runs one query per output concurrently on one compiled
// network, each on the parallel engine, repeatedly; under `go test -race`
// this catches data races in the shared encoder/solver paths.
func TestParallelRace(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	net := nn.New(nn.Config{
		Name: "r", InputDim: 3, Hidden: []int{6}, OutputDim: 4,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
	region := unitRegion(3)
	for i := 0; i < 5; i++ {
		c := compiled(t, net, region, false)
		var wg sync.WaitGroup
		for o := 0; o < 4; o++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.MaxOverOutputs(context.Background(), []int{o}, Options{Workers: 2}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// randomKnapsack builds a maximization knapsack with n binaries.
func randomKnapsack(rng *rand.Rand, n int) Problem {
	m := lp.NewModel()
	ints := make([]int, n)
	terms := make([]lp.Term, n)
	var wsum float64
	for i := 0; i < n; i++ {
		ints[i] = m.AddVariable(0, 1, "")
		m.SetObjective(ints[i], rng.Float64()*10+0.1)
		w := rng.Float64()*5 + 0.1
		terms[i] = lp.Term{Var: ints[i], Coeff: w}
		wsum += w
	}
	m.SetMaximize(true)
	m.AddConstraint(terms, lp.LE, wsum*(0.3+0.4*rng.Float64()), "cap")
	return Problem{Model: m, Integers: ints}
}

// randomMixed builds a mixed binary/continuous problem feasible at the origin.
func randomMixed(rng *rand.Rand, nBin, nCont int) Problem {
	m := lp.NewModel()
	var ints []int
	for i := 0; i < nBin; i++ {
		v := m.AddVariable(0, 1, "")
		m.SetObjective(v, rng.Float64()*4-2)
		ints = append(ints, v)
	}
	for i := 0; i < nCont; i++ {
		v := m.AddVariable(-1, 1, "")
		m.SetObjective(v, rng.Float64()*4-2)
	}
	m.SetMaximize(true)
	total := nBin + nCont
	for r := 0; r < 3; r++ {
		terms := make([]lp.Term, 0, total)
		for v := 0; v < total; v++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, lp.Term{Var: v, Coeff: rng.Float64()*2 - 1})
			}
		}
		if len(terms) > 0 {
			m.AddConstraint(terms, lp.LE, rng.Float64()+0.1, "")
		}
	}
	return Problem{Model: m, Integers: ints}
}

// TestWorkersMatchSequential cross-checks the parallel warm-started engine
// against the sequential path on the package stress models: identical
// statuses and objectives to 1e-6 regardless of worker count.
func TestWorkersMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	problems := make([]Problem, 0, 20)
	for i := 0; i < 10; i++ {
		problems = append(problems, randomKnapsack(rng, 6+rng.Intn(8)))
	}
	for i := 0; i < 10; i++ {
		problems = append(problems, randomMixed(rng, 2+rng.Intn(5), 2+rng.Intn(3)))
	}
	for pi, p := range problems {
		seqRes, err := SolveCtx(context.Background(), p, Options{Workers: 1})
		if err != nil {
			t.Fatalf("problem %d sequential: %v", pi, err)
		}
		for _, w := range []int{2, 4} {
			parRes, err := SolveCtx(context.Background(), p, Options{Workers: w})
			if err != nil {
				t.Fatalf("problem %d workers=%d: %v", pi, w, err)
			}
			if parRes.Status != seqRes.Status {
				t.Fatalf("problem %d workers=%d: status %v, sequential %v", pi, w, parRes.Status, seqRes.Status)
			}
			if seqRes.HasSolution != parRes.HasSolution {
				t.Fatalf("problem %d workers=%d: HasSolution %v vs %v", pi, w, parRes.HasSolution, seqRes.HasSolution)
			}
			if seqRes.HasSolution && math.Abs(parRes.Objective-seqRes.Objective) > 1e-6 {
				t.Fatalf("problem %d workers=%d: objective %.12g, sequential %.12g",
					pi, w, parRes.Objective, seqRes.Objective)
			}
			if parRes.HasSolution {
				// The incumbent must actually be integer feasible.
				for _, v := range p.Integers {
					if f := parRes.X[v]; math.Abs(f-math.Round(f)) > 1e-6 {
						t.Fatalf("problem %d workers=%d: non-integral incumbent %v", pi, w, parRes.X)
					}
				}
				if fe := p.Model.FeasibilityError(parRes.X); fe > 1e-5 {
					t.Fatalf("problem %d workers=%d: incumbent infeasible by %g", pi, w, fe)
				}
			}
		}
	}
}

// TestWorkersDeterministic re-runs a parallel solve and demands bitwise
// identical results: batch-synchronous scheduling makes the search a pure
// function of (problem, worker count).
func TestWorkersDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	p := randomKnapsack(rng, 14)
	a, err := SolveCtx(context.Background(), p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveCtx(context.Background(), p, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if a.Nodes != b.Nodes || a.LPPivots != b.LPPivots {
		t.Fatalf("node/pivot accounting differs across runs: %d/%d vs %d/%d",
			a.Nodes, a.LPPivots, b.Nodes, b.LPPivots)
	}
	if a.LP != b.LP || a.MaxDepth != b.MaxDepth || a.OpenHighWater != b.OpenHighWater {
		t.Fatalf("LP effort or tree shape differs across runs: %+v depth %d open %d vs %+v depth %d open %d",
			a.LP, a.MaxDepth, a.OpenHighWater, b.LP, b.MaxDepth, b.OpenHighWater)
	}
	// Only the root is solved cold: workers 1..3 fork worker 0's basis.
	if a.LP.ColdSolves != 1 || a.LP.WarmSolves < a.Nodes-1 {
		t.Fatalf("%d nodes on 4 workers took %d cold and %d warm solves, want 1 cold", a.Nodes, a.LP.ColdSolves, a.LP.WarmSolves)
	}
	if a.Objective != b.Objective || a.Bound != b.Bound {
		t.Fatalf("objective/bound differ across runs: %g/%g vs %g/%g",
			a.Objective, a.Bound, b.Objective, b.Bound)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("incumbent differs at %d: %g vs %g", i, a.X[i], b.X[i])
		}
	}
}

// TestWorkersAgainstBruteForce repeats the brute-force cross-check with the
// parallel engine — exactness, not just seq/par agreement.
func TestWorkersAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 12; trial++ {
		n := 4 + rng.Intn(7)
		p := randomKnapsack(rng, n)
		res, err := SolveCtx(context.Background(), p, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != Optimal {
			t.Fatalf("trial %d: status %v", trial, res.Status)
		}
		best := 0.0
		x := make([]float64, p.Model.NumVariables())
		for mask := 0; mask < 1<<n; mask++ {
			var val float64
			for i, v := range p.Integers {
				x[v] = float64((mask >> i) & 1)
				val += x[v] * p.Model.Objective(v)
			}
			if p.Model.FeasibilityError(x) > 1e-9 {
				continue
			}
			if val > best {
				best = val
			}
		}
		if math.Abs(res.Objective-best) > 1e-5 {
			t.Fatalf("trial %d: milp=%g bruteforce=%g", trial, res.Objective, best)
		}
	}
}

// TestWarmStartReducesPivots sanity-checks that the warm-started engine
// does less simplex work than a cold engine would: the LP pivot total for a
// tree of N nodes must come in well under N times the root relaxation cost.
func TestWarmStartReducesPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	p := randomKnapsack(rng, 16)
	res, err := SolveCtx(context.Background(), p, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	rootSol, err := lp.NewSolver(p.Model).Solve(lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes < 3 {
		t.Skip("tree too small to measure warm-start effect")
	}
	coldEstimate := res.Nodes * rootSol.Iterations
	if coldEstimate > 0 && res.LPPivots >= coldEstimate {
		t.Fatalf("warm-started tree used %d pivots over %d nodes; cold estimate %d — warm start ineffective",
			res.LPPivots, res.Nodes, coldEstimate)
	}
}

// TestCancellationAnytime exercises the context-aware engine: a solve
// cancelled mid-search (via a Progress callback, so the cancellation point
// is tied to the deterministic event stream) returns promptly with status
// Cancelled and a sound anytime bound, and re-running the same problem
// with a fixed worker count afterwards remains deterministic.
func TestCancellationAnytime(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	p := randomKnapsack(rng, 26)

	full, err := SolveCtx(context.Background(), p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if full.Status != Optimal {
		t.Fatalf("reference solve status %v", full.Status)
	}
	if full.Nodes < 8 {
		t.Skipf("tree too small (%d nodes) to cancel mid-search", full.Nodes)
	}

	// Cancel at the first progress event: either the first incumbent or the
	// progressPeriod mark, both tied to node counts rather than wall clock.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events := 0
	res, err := SolveCtx(ctx, p, Options{
		Workers:  2,
		Progress: func(Event) { events++; cancel() },
	})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no progress events before completion")
	}
	if res.Status != Cancelled {
		t.Fatalf("status %v, want cancelled", res.Status)
	}
	if res.Nodes >= full.Nodes {
		t.Fatalf("cancellation did not stop the search early: %d vs full %d nodes", res.Nodes, full.Nodes)
	}
	// Anytime soundness (maximize direction): the proven bound must be at
	// least the true optimum, any incumbent at most the true optimum.
	if res.Bound < full.Objective-1e-6 {
		t.Fatalf("anytime bound %g below true optimum %g", res.Bound, full.Objective)
	}
	if res.HasSolution && res.Objective > full.Objective+1e-6 {
		t.Fatalf("anytime incumbent %g above true optimum %g", res.Objective, full.Objective)
	}

	// A cancelled run must not perturb later runs: the search stays a pure
	// function of (problem, worker count).
	again, err := SolveCtx(context.Background(), p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Nodes != full.Nodes || again.LPPivots != full.LPPivots || again.Objective != full.Objective {
		t.Fatalf("post-cancellation re-run diverged: %d/%d/%g vs %d/%d/%g",
			again.Nodes, again.LPPivots, again.Objective, full.Nodes, full.LPPivots, full.Objective)
	}
}

// TestPreCancelledContext checks that an already-dead context returns
// immediately with the correct terminal status and a sound (vacuous) bound.
func TestPreCancelledContext(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	p := randomKnapsack(rng, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveCtx(ctx, p, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Cancelled {
		t.Fatalf("status %v, want cancelled", res.Status)
	}
	if res.Nodes != 0 || res.HasSolution {
		t.Fatalf("pre-cancelled solve did work: nodes=%d hasSolution=%v", res.Nodes, res.HasSolution)
	}
	if !math.IsInf(res.Bound, 1) { // maximize: no work proves nothing
		t.Fatalf("vacuous bound should be +Inf, got %g", res.Bound)
	}
}

// TestProgressEventStream checks the deterministic progress contract:
// events are emitted on incumbent improvements and at the node period,
// node counts are non-decreasing, and the final bound matches the result.
func TestProgressEventStream(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	p := randomKnapsack(rng, 22)
	var evs []Event
	res, err := SolveCtx(context.Background(), p, Options{Workers: 2, Progress: func(ev Event) { evs = append(evs, ev) }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status %v", res.Status)
	}
	if len(evs) == 0 {
		t.Fatal("no progress events")
	}
	lastNodes := 0
	for i, ev := range evs {
		if ev.Nodes < lastNodes {
			t.Fatalf("event %d: nodes went backwards (%d -> %d)", i, lastNodes, ev.Nodes)
		}
		lastNodes = ev.Nodes
		if ev.Open > res.OpenHighWater {
			t.Fatalf("event %d: %d nodes open, above the reported high-water %d", i, ev.Open, res.OpenHighWater)
		}
		if ev.HasIncumbent && ev.Incumbent > ev.Bound+1e-6 {
			t.Fatalf("event %d: incumbent %g above bound %g (maximize)", i, ev.Incumbent, ev.Bound)
		}
	}
	// Determinism of the stream itself (minus wall-clock fields).
	var evs2 []Event
	if _, err := SolveCtx(context.Background(), p, Options{Workers: 2, Progress: func(ev Event) { evs2 = append(evs2, ev) }}); err != nil {
		t.Fatal(err)
	}
	if len(evs) != len(evs2) {
		t.Fatalf("event stream length differs across runs: %d vs %d", len(evs), len(evs2))
	}
	for i := range evs {
		a, b := evs[i], evs2[i]
		if a.Nodes != b.Nodes || a.Open != b.Open || a.HasIncumbent != b.HasIncumbent ||
			a.Incumbent != b.Incumbent || a.Bound != b.Bound {
			t.Fatalf("event %d differs across runs: %+v vs %+v", i, a, b)
		}
	}
}

// randomReLUNet encodes a seeded one-hidden-layer ReLU network the way the
// verifier does — inputs in a box, a pre-activation per neuron pinned by an
// equality row, the big-M triangle around y = max(a, 0) switched by a 0/1
// phase indicator — and asks for the maximum of a random linear output.
// Every neuron gets an indicator, stable or not, so some phase assignments
// are infeasible: the search meets warm-certified infeasible children.
func randomReLUNet(rng *rand.Rand, nIn, nHidden int) Problem {
	m := lp.NewModel()
	in := make([]int, nIn)
	for i := range in {
		in[i] = m.AddVariable(-1, 1, "")
	}
	var ints []int
	for h := 0; h < nHidden; h++ {
		bias := rng.Float64() - 0.5
		lo, hi := bias, bias
		terms := make([]lp.Term, 0, nIn+1)
		for _, x := range in {
			w := rng.Float64()*2 - 1
			lo -= math.Abs(w)
			hi += math.Abs(w)
			terms = append(terms, lp.Term{Var: x, Coeff: w})
		}
		a := m.AddVariable(lo, hi, "")
		y := m.AddVariable(0, math.Max(hi, 0), "")
		d := m.AddVariable(0, 1, "")
		ints = append(ints, d)
		m.AddConstraint(append(terms, lp.Term{Var: a, Coeff: -1}), lp.EQ, -bias, "a=Wx+b")
		m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: a, Coeff: -1}}, lp.GE, 0, "y>=a")
		m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: a, Coeff: -1}, {Var: d, Coeff: -lo}}, lp.LE, -lo, "y<=a-lo(1-d)")
		m.AddConstraint([]lp.Term{{Var: y, Coeff: 1}, {Var: d, Coeff: -math.Max(hi, 0)}}, lp.LE, 0, "y<=hi*d")
		m.SetObjective(y, rng.Float64()*2-1)
	}
	m.SetMaximize(true)
	return Problem{Model: m, Integers: ints}
}

// TestReLUNetsAgainstPhaseEnumeration is the exactness oracle for the
// diving search: on seeded ReLU encodings with at most 10 indicators the
// optimum must equal the best of one cold LP per phase assignment, at
// every worker count, and the worker counts must agree with each other.
func TestReLUNetsAgainstPhaseEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	var certified int
	for trial := 0; trial < 8; trial++ {
		p := randomReLUNet(rng, 2+rng.Intn(3), 5+rng.Intn(6))
		best := math.Inf(-1)
		for mask := 0; mask < 1<<len(p.Integers); mask++ {
			fixed := p.Model.Clone()
			for i, v := range p.Integers {
				val := float64((mask >> i) & 1)
				fixed.SetBounds(v, val, val)
			}
			sol, err := lp.NewSolver(fixed).Solve(lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == lp.Optimal && sol.Objective > best {
				best = sol.Objective
			}
		}
		var seq float64
		for _, w := range []int{1, 2, 4} {
			res, err := SolveCtx(context.Background(), p, Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != Optimal || math.Abs(res.Objective-best) > 1e-6 {
				t.Fatalf("trial %d workers=%d: %v objective %.12g, enumeration %.12g", trial, w, res.Status, res.Objective, best)
			}
			if w == 1 {
				seq = res.Objective
			} else if math.Abs(res.Objective-seq) > 1e-9 {
				t.Fatalf("trial %d workers=%d: objective %.12g, sequential %.12g", trial, w, res.Objective, seq)
			}
			if res.LP.WarmSolves+res.LP.ColdSolves < res.Nodes {
				t.Fatalf("trial %d workers=%d: %d nodes but LP stats %+v", trial, w, res.Nodes, res.LP)
			}
			certified += res.LP.CertAccepted
		}
	}
	if certified == 0 {
		t.Fatal("no search met a warm-certified infeasible node; the nets are too tame to test it")
	}
}

package milp

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
)

// TestEpochCancelOnHandout cancels the search while worker 1 takes the
// second node it was handed in an epoch, on worker 1's own goroutine, with
// worker 0 mid-epoch beside it — once for every epoch in which that
// happens, so that the late cancellations, when few open nodes still bound
// the optimum, are among them. Every node handed out but not solved must
// still bound the answer: the anytime Bound stays at or above the optimum.
// (On relu4x16 seed 44 it is worker 1 alone that holds the nodes bounding
// the optimum when the search is cut.)
func TestEpochCancelOnHandout(t *testing.T) {
	problems := []Problem{randomKnapsack(rand.New(rand.NewSource(40)), 60)}
	for seed := int64(40); seed < 46; seed++ {
		problems = append(problems, randomReLUNet(rand.New(rand.NewSource(seed)), 4, 16))
	}
	defer func() { testHandoutHook = nil }()
	cuts := 0
	for pi, p := range problems {
		full, err := SolveCtx(context.Background(), p, Options{Workers: 2})
		if err != nil || full.Status != Optimal {
			t.Fatalf("problem %d reference solve: %v, %+v", pi, err, full)
		}
		// Cancel at the k-th time worker 1 takes its second handed-out
		// node, for every k that happens.
		for k := int32(1); ; k++ {
			ctx, cancel := context.WithCancel(context.Background())
			var seen atomic.Int32
			testHandoutHook = func(worker, n int) {
				if worker == 1 && n == 1 && seen.Add(1) == k {
					cancel()
				}
			}
			res, err := SolveCtx(ctx, p, Options{Workers: 2})
			cancel()
			if err != nil {
				t.Fatal(err)
			}
			if seen.Load() < k {
				break
			}
			cuts++
			// The cut may land on the search's last nodes, so only the
			// status is certain, not that nodes were left unexplored.
			if res.Status != Cancelled {
				t.Fatalf("problem %d k=%d: status %v after %d nodes, want cancelled", pi, k, res.Status, res.Nodes)
			}
			if res.Bound < full.Objective-1e-6 {
				t.Fatalf("problem %d k=%d: anytime bound %g below the optimum %g", pi, k, res.Bound, full.Objective)
			}
			if res.HasSolution && res.Objective > full.Objective+1e-6 {
				t.Fatalf("problem %d k=%d: anytime incumbent %g above the optimum %g", pi, k, res.Objective, full.Objective)
			}
		}
	}
	if cuts < 20 {
		t.Fatalf("worker 1 took a second handed-out node in only %d epochs", cuts)
	}
}

// TestEpochNodeBudget runs node budgets below, at and above one epoch and
// one epoch per worker: an epoch never takes the search past MaxNodes, and
// the budget is spent in full before the search reports NodeLimit with a
// sound bound.
func TestEpochNodeBudget(t *testing.T) {
	p := randomKnapsack(rand.New(rand.NewSource(41)), 40)
	full, err := SolveCtx(context.Background(), p, Options{Workers: 1})
	if err != nil || full.Status != Optimal {
		t.Fatalf("reference solve: %v, %+v", err, full)
	}
	for _, workers := range []int{2, 4} {
		for _, limit := range []int{3, 9, 17, 33, epochNodes, epochNodes + 1, 2*epochNodes - 1, 2*epochNodes + 1} {
			if limit >= full.Nodes {
				t.Fatalf("budget %d does not cut the %d-node search", limit, full.Nodes)
			}
			res, err := SolveCtx(context.Background(), p, Options{Workers: workers, MaxNodes: limit})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != NodeLimit || res.Nodes != limit {
				t.Errorf("workers=%d MaxNodes=%d: %v after %d nodes", workers, limit, res.Status, res.Nodes)
			}
			if res.Bound < full.Objective-1e-6 {
				t.Errorf("workers=%d MaxNodes=%d: bound %g below the optimum %g", workers, limit, res.Bound, full.Objective)
			}
		}
	}
}

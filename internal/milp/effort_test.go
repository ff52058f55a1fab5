package milp

import (
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// TestEffortFirstIncumbentNode pins where a search's first incumbent is
// recorded: Result.FirstIncumbentNode is the Nodes of the first progress
// event that has an incumbent, it is set whether or not anyone listens to
// Progress, and it is 0 when the search finds no incumbent.
func TestEffortFirstIncumbentNode(t *testing.T) {
	infeasible := lp.NewModel() // two binaries that must sum to 3
	x, y := infeasible.AddVariable(0, 1, "x"), infeasible.AddVariable(0, 1, "y")
	infeasible.AddConstraint([]lp.Term{{Var: x, Coeff: 1}, {Var: y, Coeff: 1}}, lp.EQ, 3, "sum3")
	for _, tc := range []struct {
		name string
		p    Problem
		want Status
	}{
		{"knapsack22", randomKnapsack(rand.New(rand.NewSource(37)), 22), Optimal},
		{"relu4x12", randomReLUNet(rand.New(rand.NewSource(41)), 4, 12), Optimal},
		{"infeasible", Problem{Model: infeasible, Integers: []int{x, y}}, Infeasible},
	} {
		for _, workers := range []int{1, 2} {
			first := 0
			heard := solveOK(t, tc.p, Options{Workers: workers, Progress: func(ev Event) {
				if first == 0 && ev.HasIncumbent {
					first = ev.Nodes
				}
			}})
			silent := solveOK(t, tc.p, Options{Workers: workers})
			if heard.Status != tc.want || silent.Status != tc.want {
				t.Fatalf("%s workers=%d: status %v and %v, want %v", tc.name, workers, heard.Status, silent.Status, tc.want)
			}
			if heard.Effort != silent.Effort {
				t.Fatalf("%s workers=%d: effort with Progress %+v, without %+v", tc.name, workers, heard.Effort, silent.Effort)
			}
			if got := silent.FirstIncumbentNode; got != first {
				t.Fatalf("%s workers=%d: FirstIncumbentNode %d, first incumbent event at %d nodes", tc.name, workers, got, first)
			}
			if (first > 0) != silent.HasSolution || silent.Solves != 1 {
				t.Fatalf("%s workers=%d: FirstIncumbentNode %d, HasSolution %v, Solves %d",
					tc.name, workers, first, silent.HasSolution, silent.Solves)
			}
		}
	}
}

// TestEffortAdd pins the one fold rule: work is summed, tree shape takes
// the largest.
func TestEffortAdd(t *testing.T) {
	a := Effort{Solves: 1, Nodes: 10, LPPivots: 100, MaxDepth: 5, OpenHighWater: 3, FirstIncumbentNode: 7,
		LP: lp.Stats{WarmSolves: 9, DualPivots: 80}}
	b := Effort{Solves: 2, Nodes: 4, LPPivots: 30, MaxDepth: 8, OpenHighWater: 2,
		LP: lp.Stats{WarmSolves: 3, ColdSolves: 1, CertFailed: 1}}
	for _, tc := range []struct {
		name           string
		into, add, sum Effort
	}{
		{"into zero", Effort{}, a, a},
		{"zero adds nothing", a, Effort{}, a},
		{"work sums, shape takes the largest", a, b, Effort{Solves: 3, Nodes: 14, LPPivots: 130, MaxDepth: 8, OpenHighWater: 3,
			FirstIncumbentNode: 7, LP: lp.Stats{WarmSolves: 12, ColdSolves: 1, DualPivots: 80, CertFailed: 1}}},
		{"order does not matter", b, a, Effort{Solves: 3, Nodes: 14, LPPivots: 130, MaxDepth: 8, OpenHighWater: 3,
			FirstIncumbentNode: 7, LP: lp.Stats{WarmSolves: 12, ColdSolves: 1, DualPivots: 80, CertFailed: 1}}},
	} {
		got := tc.into
		got.Add(tc.add)
		if got != tc.sum {
			t.Errorf("%s: %+v.Add(%+v) = %+v, want %+v", tc.name, tc.into, tc.add, got, tc.sum)
		}
	}
}

package milp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/lp"
)

// settleGoroutines waits, briefly, for the goroutine count to fall back to
// want: a resident worker signals its exit just before it returns.
func settleGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after the solve, %d before", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResidentWorkerLifecycle drives the resident workers through every
// way a solve ends — concluded, root-infeasible, out of nodes, cancelled
// mid-batch, expired before it starts, and a node solve failing — and
// checks that no worker goroutine outlives the call and that a concluded
// search answers what the one-worker search answers.
func TestResidentWorkerLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	small := randomKnapsack(rng, 14)
	big := randomKnapsack(rng, 40)
	infeasible := func() Problem {
		m := lp.NewModel()
		x := m.AddVariable(0, 1, "")
		m.SetObjective(x, 1)
		m.AddConstraint([]lp.Term{{Var: x, Coeff: 1}}, lp.GE, 2, "")
		return Problem{Model: m, Integers: []int{x}}
	}()
	errNode := errors.New("injected node failure")

	// withHook solves with testNodeHook set for the duration of the call.
	withHook := func(ctx context.Context, p Problem, opts Options, hook func(*node) error) (*Result, error) {
		testNodeHook = hook
		defer func() { testNodeHook = nil }()
		return SolveCtx(ctx, p, opts)
	}
	cases := []struct {
		name  string
		p     Problem
		solve func(p Problem, opts Options) (*Result, error)
		check func(t *testing.T, res, seq *Result, err error)
	}{
		{name: "optimal", p: small, check: func(t *testing.T, res, seq *Result, err error) {
			if err != nil || res.Status != Optimal || seq.Status != Optimal {
				t.Fatalf("err %v, status %v (one worker %v)", err, res.Status, seq.Status)
			}
			if math.Abs(res.Objective-seq.Objective) > 1e-9 || math.Abs(res.Bound-seq.Bound) > 1e-9 {
				t.Fatalf("objective %g bound %g, one worker %g / %g", res.Objective, res.Bound, seq.Objective, seq.Bound)
			}
		}},
		{name: "root-infeasible", p: infeasible, check: func(t *testing.T, res, seq *Result, err error) {
			if err != nil || res.Status != Infeasible || seq.Status != Infeasible {
				t.Fatalf("err %v, status %v (one worker %v)", err, res.Status, seq.Status)
			}
		}},
		{name: "node-limit", p: big,
			solve: func(p Problem, opts Options) (*Result, error) {
				opts.MaxNodes = 9
				return SolveCtx(context.Background(), p, opts)
			},
			check: func(t *testing.T, res, _ *Result, err error) {
				if err != nil || res.Status != NodeLimit || res.Nodes > 9 {
					t.Fatalf("err %v, status %v after %d nodes", err, res.Status, res.Nodes)
				}
			}},
		{name: "cancelled-mid-batch", p: big,
			// Every node from depth 4 on cancels the context on the
			// goroutine solving it, before its first pivot.
			solve: func(p Problem, opts Options) (*Result, error) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				return withHook(ctx, p, opts, func(nd *node) error {
					if nd.depth >= 4 {
						cancel()
					}
					return nil
				})
			},
			check: func(t *testing.T, res, seq *Result, err error) {
				if err != nil || res.Status != Cancelled || res.Nodes >= seq.Nodes {
					t.Fatalf("err %v, status %v after %d nodes (full search %d)", err, res.Status, res.Nodes, seq.Nodes)
				}
				if res.Bound < seq.Objective-1e-6 {
					t.Fatalf("anytime bound %g below the optimum %g", res.Bound, seq.Objective)
				}
			}},
		{name: "expired-deadline", p: big,
			solve: func(p Problem, opts Options) (*Result, error) {
				ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
				defer cancel()
				return SolveCtx(ctx, p, opts)
			},
			check: func(t *testing.T, res, _ *Result, err error) {
				if err != nil || res.Status != TimeLimit || res.Nodes != 0 {
					t.Fatalf("err %v, status %v after %d nodes", err, res.Status, res.Nodes)
				}
			}},
		{name: "node-error", p: big,
			solve: func(p Problem, opts Options) (*Result, error) {
				return withHook(context.Background(), p, opts, func(nd *node) error {
					if nd.depth >= 3 {
						return errNode
					}
					return nil
				})
			},
			check: func(t *testing.T, res, _ *Result, err error) {
				if !errors.Is(err, errNode) || res != nil {
					t.Fatalf("err %v, result %+v", err, res)
				}
			}},
	}

	run := func(t *testing.T, procs int) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		for _, tc := range cases {
			seq, err := SolveCtx(context.Background(), tc.p, Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			solve := tc.solve
			if solve == nil {
				solve = func(p Problem, opts Options) (*Result, error) { return SolveCtx(context.Background(), p, opts) }
			}
			for _, w := range []int{2, 4} {
				if procs == 1 && w != 2 {
					continue
				}
				before := runtime.NumGoroutine()
				res, err := solve(tc.p, Options{Workers: w})
				tc.check(t, res, seq, err)
				settleGoroutines(t, before, tc.name)
			}
		}
	}
	t.Run("GOMAXPROCS=2", func(t *testing.T) { run(t, 2) })
	t.Run("GOMAXPROCS=1", func(t *testing.T) { run(t, 1) })
}

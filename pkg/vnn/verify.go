package vnn

import (
	"context"
	"fmt"

	"repro/internal/verify"
)

// Outcome classifies the verdict of one property query. It is the
// engine's own verdict enum, whose constants run from best to worst
// (Worst relies on this order) and print as "proved", "inconclusive" and
// "violated" — the wire strings.
type Outcome = verify.Outcome

// Verdicts, ordered from best to worst; see verify.Outcome.
const (
	Proved       = verify.Proved
	Inconclusive = verify.Inconclusive
	Violated     = verify.Violated
)

// ErrEmptyRegion is a max query's error over a region no input satisfies.
// Only the search's LP finds that out, so it comes from Verify, not Validate.
var ErrEmptyRegion = verify.ErrEmptyRegion

// Result is the anytime answer to one property. Whatever the outcome, the
// proven interval [LowerBound, UpperBound] on the queried quantity is
// sound at the moment the query ended: an interrupted max query still
// reports the best witness found (Value, LowerBound) and the tightest
// proven UpperBound instead of a bare timeout.
type Result struct {
	// Property echoes the property this result answers.
	Property Property
	// Outcome is the verdict; see Outcome.
	Outcome Outcome
	// Exact reports whether the query concluded (no budget interruption).
	Exact bool
	// Value is the best witnessed value, the network's forward pass at
	// Witness: the largest output reached for max queries (smallest for
	// MinOutput), the search's best point for threshold proofs (the
	// counterexample's value when violated); meaningless when no witness
	// exists.
	Value float64
	// LowerBound and UpperBound bracket the queried quantity with proven
	// bounds; ±Inf where no finite bound was established.
	LowerBound, UpperBound float64
	// Witness is a concrete input achieving Value (a counterexample when
	// Violated); nil when none was found.
	Witness []float64
	// Radius is the certified perturbation radius (ResilienceRadius only).
	Radius float64
	// Iterations counts binary-search steps (ResilienceRadius only).
	Iterations int
	// Stats describes the effort the query took.
	Stats Stats
}

// Verify answers a batch of properties against one compiled network. The
// properties run sequentially in the given order (each may parallelize
// internally per Options); all of them share the compiled encoding, so
// nothing is re-encoded or re-tightened between queries.
//
// The context governs the whole batch: its deadline and cancellation
// reach into every simplex iteration, and once it fires the remaining
// properties return promptly with their interval-analysis anytime bounds
// rather than being skipped. Verify returns an error only for malformed
// queries or an unsolvable encoding — running out of budget is not an
// error, it is an Inconclusive result. Every property is validated against
// the compiled network and region before the first search runs.
func Verify(ctx context.Context, cn *CompiledNetwork, props ...Property) ([]*Result, error) {
	if err := validateProperties(cn.Net(), cn.Region(), props); err != nil {
		return nil, fmt.Errorf("vnn: Verify %w", err)
	}
	results := make([]*Result, len(props))
	for i, p := range props {
		r, err := p.run(ctx, cn, i)
		if err != nil {
			return nil, fmt.Errorf("vnn: property %d (%s): %w", i, p, err)
		}
		r.Property = p
		results[i] = r
	}
	return results, nil
}

// VerifyOne answers a single property; sugar over Verify.
func VerifyOne(ctx context.Context, cn *CompiledNetwork, prop Property) (*Result, error) {
	rs, err := Verify(ctx, cn, prop)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// Worst aggregates a batch verdict: Violated if any property is violated,
// else Inconclusive if any ran out of budget, else Proved.
func Worst(results []*Result) Outcome {
	worst := Proved
	for _, r := range results {
		if r.Outcome > worst {
			worst = r.Outcome
		}
	}
	return worst
}

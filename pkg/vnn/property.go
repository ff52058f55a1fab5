package vnn

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/verify"
)

// Property is one element of the verification algebra: a question that
// compiles against a CompiledNetwork and is answered by Verify. Properties
// are plain immutable values — build them anywhere, reuse them across
// networks, batch them freely. Every one of them is answered by a method
// of the same verify.Compiled, the engine's only way to run a query.
type Property interface {
	// String renders the property for logs and reports.
	String() string
	// validate rejects exactly the queries the engine would refuse to
	// answer on net over region (a region valid for net), so a batch is
	// refused whole before any search runs. Only an empty region escapes
	// it: finding one takes an LP (see ErrEmptyRegion).
	validate(net *Network, region *Region) error
	// run answers the property against the compiled network. idx tags
	// progress events with the property's position in the Verify batch.
	run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error)
}

// MaxOutput asks for the maximum of one output neuron over the region.
func MaxOutput(output int) Property { return maxProp{outs: []int{output}} }

// MaxOverOutputs asks for the maximum over several output neurons (a
// disjunction, solved as independent per-output MILPs against the shared
// encoding one after another).
func MaxOverOutputs(outputs ...int) Property {
	return maxProp{outs: append([]int(nil), outputs...)}
}

// MinOutput asks for the minimum of one output neuron over the region.
func MinOutput(output int) Property { return minProp{out: output} }

// MaxLinear asks for the maximum of the linear functional
// Σ coeffs[k]·output[k] over the region.
func MaxLinear(coeffs map[int]float64) Property { return linMaxProp{coeffs: copyCoeffs(coeffs)} }

// AtMost asks for a proof that output ≤ threshold everywhere on the
// region, or a counterexample. This is the paper's "prove the 3 m/s
// bound" query (Table II, last row).
func AtMost(output int, threshold float64) Property {
	return proveProp{coeffs: map[int]float64{output: 1}, threshold: threshold, single: output}
}

// LinearAtMost asks for a proof that Σ coeffs[k]·output[k] ≤ threshold
// everywhere on the region, or a counterexample — the general linear
// output inequality.
func LinearAtMost(coeffs map[int]float64, threshold float64) Property {
	return proveProp{coeffs: copyCoeffs(coeffs), threshold: threshold, single: -1}
}

// ResilienceRadius asks for the largest ℓ∞ perturbation radius around the
// nominal input x0 within which output provably stays ≤ threshold (Cheng
// et al., ATVA 2017). The search domain is the compiled region's box.
// maxIterations bounds the binary search; 0 means 10.
//
// Unlike the other properties the region shrinks at every binary-search
// probe, so each probe re-compiles its ball region; the shared encoding
// cannot be reused. Cancellation still applies: an interrupted search
// returns the largest radius certified so far.
func ResilienceRadius(x0 []float64, output int, threshold float64, maxIterations int) Property {
	return resilienceProp{
		x0: append([]float64(nil), x0...), out: output,
		threshold: threshold, maxIter: maxIterations,
	}
}

// checkOutputs rejects output indices the network does not have.
func checkOutputs(net *Network, outs ...int) error {
	for _, o := range outs {
		if o < 0 || o >= net.OutputDim() {
			return fmt.Errorf("references output %d of %d", o, net.OutputDim())
		}
	}
	return nil
}

// checkCoeffs rejects an empty functional and outputs the network does
// not have.
func checkCoeffs(net *Network, coeffs map[int]float64) error {
	if len(coeffs) == 0 {
		return fmt.Errorf("needs at least one coefficient")
	}
	for o := range coeffs {
		if err := checkOutputs(net, o); err != nil {
			return err
		}
	}
	return nil
}

func copyCoeffs(coeffs map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(coeffs))
	for k, v := range coeffs {
		out[k] = v
	}
	return out
}

// renderCoeffs formats a coefficient map deterministically.
func renderCoeffs(coeffs map[int]float64) string {
	keys := make([]int, 0, len(coeffs))
	for k := range coeffs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteString(" + ")
		}
		fmt.Fprintf(&b, "%g·y[%d]", coeffs[k], k)
	}
	return b.String()
}

type maxProp struct{ outs []int }

func (p maxProp) String() string {
	if len(p.outs) == 1 {
		return fmt.Sprintf("max y[%d]", p.outs[0])
	}
	return fmt.Sprintf("max over outputs %v", p.outs)
}

func (p maxProp) validate(net *Network, _ *Region) error {
	if len(p.outs) == 0 {
		return fmt.Errorf("needs at least one output")
	}
	return checkOutputs(net, p.outs...)
}

func (p maxProp) run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error) {
	return result(cn.c.MaxOverOutputs(ctx, p.outs, verifyOptions(cn.opts, idx)))
}

type linMaxProp struct{ coeffs map[int]float64 }

func (p linMaxProp) String() string { return "max " + renderCoeffs(p.coeffs) }

func (p linMaxProp) validate(net *Network, _ *Region) error { return checkCoeffs(net, p.coeffs) }

func (p linMaxProp) run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error) {
	return result(cn.c.MaxLinear(ctx, p.coeffs, verifyOptions(cn.opts, idx)))
}

type minProp struct{ out int }

func (p minProp) String() string { return fmt.Sprintf("min y[%d]", p.out) }

func (p minProp) validate(net *Network, _ *Region) error { return checkOutputs(net, p.out) }

func (p minProp) run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error) {
	// Minimize by maximizing the negated output on the shared encoding.
	r, err := result(cn.c.MaxLinear(ctx, map[int]float64{p.out: -1}, verifyOptions(cn.opts, idx)))
	if err != nil {
		return nil, err
	}
	// Mirror back into the output's own scale: the witnessed value is an
	// upper bound on the true minimum, the proven bound a lower one.
	r.Value, r.LowerBound, r.UpperBound = -r.Value, -r.UpperBound, -r.LowerBound
	return r, nil
}

type proveProp struct {
	coeffs    map[int]float64
	threshold float64
	single    int // output index when the functional is one output, else -1
}

func (p proveProp) String() string {
	if p.single >= 0 {
		return fmt.Sprintf("y[%d] ≤ %g", p.single, p.threshold)
	}
	return fmt.Sprintf("%s ≤ %g", renderCoeffs(p.coeffs), p.threshold)
}

func (p proveProp) validate(net *Network, _ *Region) error {
	if math.IsNaN(p.threshold) {
		return fmt.Errorf("threshold is NaN")
	}
	return checkCoeffs(net, p.coeffs)
}

func (p proveProp) run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error) {
	return result(cn.c.ProveLinearUpperBound(ctx, p.coeffs, p.threshold, verifyOptions(cn.opts, idx)))
}

type resilienceProp struct {
	x0        []float64
	out       int
	threshold float64
	maxIter   int
}

func (p resilienceProp) String() string {
	return fmt.Sprintf("resilience radius of y[%d] ≤ %g", p.out, p.threshold)
}

func (p resilienceProp) validate(net *Network, region *Region) error {
	return verify.CheckResilience(net, region, p.x0, p.out, p.threshold)
}

func (p resilienceProp) run(ctx context.Context, cn *CompiledNetwork, idx int) (*Result, error) {
	rr, err := cn.c.Resilience(ctx, p.x0, p.out, p.threshold, verify.ResilienceOptions{
		MaxIterations: p.maxIter,
		Query:         verifyOptions(cn.opts, idx),
	})
	if err != nil {
		return nil, err
	}
	r := &Result{
		Radius:     rr.Epsilon,
		Iterations: rr.Iterations,
		LowerBound: math.Inf(-1),
		UpperBound: math.Inf(1),
		Stats:      rr.Stats,
	}
	if rr.Certified {
		r.Outcome = Proved
	} else {
		r.Outcome = Inconclusive
	}
	if rr.Breaking != nil {
		r.Witness = rr.Breaking
		r.Value = rr.BreakingValue
	}
	return r, nil
}

// result shapes an engine answer into the public Result — the one place
// that happens for every property but ResilienceRadius. The proven bracket
// is [Value, UpperBound] when the search holds a witness, and
// (-Inf, UpperBound] otherwise.
func result(mr *verify.MaxResult, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	r := &Result{
		Outcome:    mr.Outcome,
		Exact:      mr.Outcome != Inconclusive,
		Value:      mr.Value,
		LowerBound: math.Inf(-1),
		UpperBound: mr.UpperBound,
		Witness:    mr.Witness,
		Stats:      mr.Stats,
	}
	if mr.Witness != nil {
		r.LowerBound = mr.Value
	}
	return r, nil
}

// Package verify implements the paper's core experiment: formal
// verification of ReLU networks by encoding them as mixed-integer linear
// constraints (following Cheng, Nührenberg, Ruess — "Maximum Resilience of
// Artificial Neural Networks", ATVA 2017) and answering safety queries with
// the branch-and-bound solver from package milp.
//
// Every query is a method on *Compiled: Compile a network over an input
// region once, then ask (Table II of the paper):
//
//   - MaxLinear / MaxOverOutputs: the maximum value an output can take
//     while the input stays inside a constrained region ("maximum lateral
//     velocity when a vehicle exists on the left");
//   - ProveLinearUpperBound: proof, or counterexample, that an output stays
//     below a threshold ("the lateral velocity can never exceed 3 m/s").
//
// Both are one search: a threshold proof is the maximum over the region ∩
// {output ≥ threshold}, answered by the same MaxResult, and every witness
// is valued by the network's forward pass.
//
// Only ReLU hidden layers and identity output layers are encodable; tanh
// networks are rejected (the paper's MC/DC discussion notes they need no
// branch analysis — and symmetrically, they admit no exact MILP encoding).
package verify

import (
	"fmt"
	"math"

	"repro/internal/bounds"
	"repro/internal/lp"
	"repro/internal/nn"
)

// LinearConstraint is Σ Coeffs[i]·x[i] {≤,=,≥} RHS over network inputs;
// it expresses scenario preconditions that a plain box cannot, e.g.
// "the left vehicle is closer than the front one".
type LinearConstraint struct {
	Coeffs map[int]float64
	Sense  lp.Sense
	RHS    float64
	Name   string
}

// InputRegion is the set of network inputs a property quantifies over:
// a box (required) intersected with optional linear constraints.
type InputRegion struct {
	Box    []bounds.Interval
	Linear []LinearConstraint
}

// Validate checks the region against a network's input dimension.
func (r *InputRegion) Validate(net *nn.Network) error {
	if len(r.Box) != net.InputDim() {
		return fmt.Errorf("verify: region box dim %d, network input %d", len(r.Box), net.InputDim())
	}
	for i, iv := range r.Box {
		if iv.Lo > iv.Hi {
			return fmt.Errorf("verify: region box[%d] empty: [%g, %g]", i, iv.Lo, iv.Hi)
		}
	}
	for _, lc := range r.Linear {
		for v := range lc.Coeffs {
			if v < 0 || v >= net.InputDim() {
				return fmt.Errorf("verify: constraint %q references input %d of %d", lc.Name, v, net.InputDim())
			}
		}
	}
	return nil
}

// Contains reports whether x satisfies the region (box and linear parts).
// A linear row is summed in ascending input index, the rule outputOrder
// sets for functionals, so a point near a row's boundary gets the same
// answer on every call (Go randomises map iteration; float addition is
// not associative).
func (r *InputRegion) Contains(x []float64, tol float64) bool {
	for i, iv := range r.Box {
		if x[i] < iv.Lo-tol || x[i] > iv.Hi+tol {
			return false
		}
	}
	for _, lc := range r.Linear {
		var lhs float64
		for v, xv := range x {
			if c, ok := lc.Coeffs[v]; ok {
				lhs += c * xv
			}
		}
		switch lc.Sense {
		case lp.LE:
			if lhs > lc.RHS+tol {
				return false
			}
		case lp.GE:
			if lhs < lc.RHS-tol {
				return false
			}
		case lp.EQ:
			if lhs < lc.RHS-tol || lhs > lc.RHS+tol {
				return false
			}
		}
	}
	return true
}

// encoding holds the MILP image of a network over a region.
type encoding struct {
	model    *lp.Model
	inputs   []int   // model variable per network input
	posts    [][]int // model variable per neuron post-activation, per layer
	outputs  []int   // model variable per network output
	binaries []int   // ReLU phase indicators
	relus    []relu  // the neuron behind each binary, in binaries order
	nb       *bounds.NetworkBounds
	stable   int // hidden neurons encoded without a binary
}

// relu is an unstable neuron as the branching score reads it: its post
// variable and its affine form Σ w[k]·x[prev[k]] + b over the previous
// layer's variables. prev and w are shared with the encoding and the
// network and are read-only.
type relu struct {
	post int
	prev []int
	w    []float64
	b    float64
}

// score is the search's branching score (milp.Options.Score) for the i-th
// binary at LP point x: the neuron's relaxed output less its true ReLU
// value there, x[post] − max(0, z) with z summed in row order. The big-M
// rows keep x[post] ≥ max(0, z), so the score is the relaxation's error
// at x: the slack that splitting the neuron takes out of the LP point.
// It reads only the encoding, so workers may call it concurrently.
func (e *encoding) score(x []float64, i int) float64 {
	r := &e.relus[i]
	var z float64
	for k, w := range r.w {
		z += w * x[r.prev[k]]
	}
	return x[r.post] - math.Max(0, z+r.b)
}

// withModelClone returns a copy of the encoding whose model is an
// independent clone, so several queries can mutate objectives and bounds
// concurrently while sharing one encoding pass. Variable indices carry over.
func (e *encoding) withModelClone() *encoding {
	out := *e
	out.model = e.model.Clone()
	return &out
}

// encodeOptions tune the encoding.
type encodeOptions struct {
	// relaxBinaries makes phase indicators continuous in [0,1]
	// (used for LP-based bound tightening and relaxation-only analysis).
	relaxBinaries bool
	// prefixLayers, when >= 0, encodes only the first prefixLayers layers
	// (0 encodes just the input region). -1 encodes the whole network.
	prefixLayers int
}

// encode builds the MILP for net restricted to region, using nb for big-M
// constants. nb must come from bounds.Propagate over the same region box
// (or a tightened refinement of it).
func encode(net *nn.Network, region *InputRegion, nb *bounds.NetworkBounds, opt encodeOptions) (*encoding, error) {
	if err := region.Validate(net); err != nil {
		return nil, err
	}
	lastLayer := len(net.Layers) - 1
	stopAt := lastLayer
	if opt.prefixLayers >= 0 && opt.prefixLayers <= lastLayer {
		stopAt = opt.prefixLayers - 1
	}
	for li := 0; li <= stopAt; li++ {
		act := net.Layers[li].Act
		if li == lastLayer {
			if act != nn.Identity {
				return nil, fmt.Errorf("verify: output layer activation %v not encodable (need identity)", act)
			}
		} else if act != nn.ReLU {
			return nil, fmt.Errorf("verify: hidden layer %d activation %v not encodable (need relu)", li, act)
		}
	}

	e := &encoding{model: lp.NewModel(), nb: nb}
	// Input variables bounded by the region box.
	for _, iv := range region.Box {
		e.inputs = append(e.inputs, e.model.AddVariable(iv.Lo, iv.Hi, ""))
	}
	// Linear scenario constraints.
	for _, lc := range region.Linear {
		terms := make([]lp.Term, 0, len(lc.Coeffs))
		for v, c := range lc.Coeffs {
			terms = append(terms, lp.Term{Var: e.inputs[v], Coeff: c})
		}
		e.model.AddConstraint(terms, lc.Sense, lc.RHS, "")
	}

	prev := e.inputs
	for li := 0; li <= stopAt; li++ {
		layer := net.Layers[li]
		lb := nb.Layers[li]
		isOutput := li == lastLayer
		vars := make([]int, layer.OutDim())
		for j, row := range layer.W {
			pre := lb.Pre[j]
			// Affine expression terms: Σ w·prev + b.
			affine := func(extra ...lp.Term) []lp.Term {
				terms := make([]lp.Term, 0, len(row)+len(extra))
				for k, w := range row {
					if w != 0 {
						terms = append(terms, lp.Term{Var: prev[k], Coeff: w})
					}
				}
				return append(terms, extra...)
			}
			if isOutput {
				// y = Σ w·prev + b exactly.
				y := e.model.AddVariable(pre.Lo, pre.Hi, "")
				e.model.AddConstraint(affine(lp.Term{Var: y, Coeff: -1}), lp.EQ, -layer.B[j], "")
				vars[j] = y
				continue
			}
			switch {
			case pre.Hi <= 0:
				// Dead neuron: post is identically zero.
				vars[j] = e.model.AddVariable(0, 0, "")
				e.stable++
			case pre.Lo >= 0:
				// Always-active neuron: post equals the affine form.
				p := e.model.AddVariable(pre.Lo, pre.Hi, "")
				e.model.AddConstraint(affine(lp.Term{Var: p, Coeff: -1}), lp.EQ, -layer.B[j], "")
				vars[j] = p
				e.stable++
			default:
				// Unstable neuron: big-M encoding with indicator d.
				//   p ≥ aff               (p - aff ≥ 0)
				//   p ≤ aff − Lo·(1−d)    (p - aff - Lo·d ≤ -Lo)
				//   p ≤ Hi·d              (p - Hi·d ≤ 0)
				//   0 ≤ p ≤ max(0,Hi)
				p := e.model.AddVariable(0, pre.Hi, "")
				d := e.model.AddVariable(0, 1, "")
				e.model.AddConstraint(affine(lp.Term{Var: p, Coeff: -1}), lp.LE, -layer.B[j], "")
				e.model.AddConstraint(affine(lp.Term{Var: p, Coeff: -1}, lp.Term{Var: d, Coeff: pre.Lo}), lp.GE, -layer.B[j]+pre.Lo, "")
				e.model.AddConstraint([]lp.Term{{Var: p, Coeff: 1}, {Var: d, Coeff: -pre.Hi}}, lp.LE, 0, "")
				if !opt.relaxBinaries {
					e.binaries = append(e.binaries, d)
					e.relus = append(e.relus, relu{post: p, prev: prev, w: row, b: layer.B[j]})
				}
				vars[j] = p
			}
		}
		if isOutput {
			e.outputs = vars
		} else {
			e.posts = append(e.posts, vars)
		}
		prev = vars
	}
	return e, nil
}

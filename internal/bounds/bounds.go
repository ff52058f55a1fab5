// Package bounds performs interval bound propagation (a static analysis in
// the sense of the paper's Sec. II (B)) through feedforward networks.
// For every neuron it computes an interval guaranteed to contain the
// pre-activation value whenever the input lies in a given box. These
// intervals serve three purposes:
//
//   - they are the big-M constants of the MILP encoding in package verify
//     (tight intervals shrink the search space dramatically);
//   - neurons whose interval does not straddle zero are *stable* and need
//     no binary variable at all;
//   - they are a standalone, fast but incomplete safety check: if the
//     output interval already satisfies the property, no MILP is needed.
package bounds

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/nn"
)

// propagatePasses counts full interval-propagation passes performed by this
// process — the one process-wide effort counter left (the frozen benchmark
// harness reads it). It exists so tests can assert that an analysis
// consuming a CompiledNetwork's already-computed bounds (e.g. traceability
// interval conditions) performs zero additional propagation passes.
var propagatePasses atomic.Int64

// Passes returns the total number of interval-propagation passes performed
// by this process.
func Passes() int64 { return propagatePasses.Load() }

// Interval is a closed interval [Lo, Hi].
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi − Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// StraddlesZero reports whether the interval contains both signs.
func (iv Interval) StraddlesZero() bool { return iv.Lo < 0 && iv.Hi > 0 }

// Point returns a degenerate interval [v, v].
func Point(v float64) Interval { return Interval{v, v} }

// LayerBounds holds the pre- and post-activation intervals of one layer.
type LayerBounds struct {
	Pre  []Interval
	Post []Interval
}

// NetworkBounds is the result of propagation through a whole network.
type NetworkBounds struct {
	Input  []Interval
	Layers []LayerBounds
}

// Output returns the bounds of the network's output layer.
func (nb *NetworkBounds) Output() []Interval {
	return nb.Layers[len(nb.Layers)-1].Post
}

// StableNeurons counts hidden neurons whose pre-activation interval does not
// straddle zero — those need no binary variable in the MILP encoding.
func (nb *NetworkBounds) StableNeurons() (stable, total int) {
	for li := 0; li+1 < len(nb.Layers); li++ {
		for _, iv := range nb.Layers[li].Pre {
			total++
			if !iv.StraddlesZero() {
				stable++
			}
		}
	}
	return stable, total
}

// Propagate computes interval bounds for every neuron of net when the input
// ranges over the given box. It returns an error when the box width does not
// match the network input or when an unsupported activation is present.
func Propagate(net *nn.Network, input []Interval) (*NetworkBounds, error) {
	return PropagateWithHints(net, input, nil)
}

// PropagateWithHints propagates intervals while intersecting each layer's
// computed pre-activation intervals with externally proven bounds (e.g.
// from LP tightening in package verify). hints may be nil, shorter than the
// layer count, or contain nil rows; present entries must match layer widths
// and be valid bounds or the result is undefined.
func PropagateWithHints(net *nn.Network, input []Interval, hints [][]Interval) (*NetworkBounds, error) {
	propagatePasses.Add(1)
	if len(input) != net.InputDim() {
		return nil, fmt.Errorf("bounds: box dim %d, network input %d", len(input), net.InputDim())
	}
	for i, iv := range input {
		if iv.Lo > iv.Hi || math.IsNaN(iv.Lo) || math.IsNaN(iv.Hi) {
			return nil, fmt.Errorf("bounds: input interval %d malformed: [%g, %g]", i, iv.Lo, iv.Hi)
		}
	}
	nb := &NetworkBounds{Input: append([]Interval(nil), input...)}
	cur := input
	for li, l := range net.Layers {
		lb := LayerBounds{
			Pre:  make([]Interval, l.OutDim()),
			Post: make([]Interval, l.OutDim()),
		}
		for i, row := range l.W {
			lo, hi := l.B[i], l.B[i]
			for j, w := range row {
				if w >= 0 {
					lo += w * cur[j].Lo
					hi += w * cur[j].Hi
				} else {
					lo += w * cur[j].Hi
					hi += w * cur[j].Lo
				}
			}
			pre := Interval{lo, hi}
			if li < len(hints) && hints[li] != nil {
				h := hints[li][i]
				pre.Lo = math.Max(pre.Lo, h.Lo)
				pre.Hi = math.Min(pre.Hi, h.Hi)
				if pre.Lo > pre.Hi { // numerically crossed; collapse safely
					mid := (pre.Lo + pre.Hi) / 2
					pre = Interval{mid, mid}
				}
			}
			lb.Pre[i] = pre
			var err error
			lb.Post[i], err = applyAct(l.Act, pre)
			if err != nil {
				return nil, fmt.Errorf("bounds: layer %d: %w", li, err)
			}
		}
		nb.Layers = append(nb.Layers, lb)
		cur = lb.Post
	}
	return nb, nil
}

// applyAct maps an interval through a monotone activation.
func applyAct(a nn.Activation, iv Interval) (Interval, error) {
	switch a {
	case nn.Identity:
		return iv, nil
	case nn.ReLU:
		return Interval{math.Max(0, iv.Lo), math.Max(0, iv.Hi)}, nil
	case nn.Tanh:
		return Interval{math.Tanh(iv.Lo), math.Tanh(iv.Hi)}, nil
	default:
		return Interval{}, fmt.Errorf("unsupported activation %v", a)
	}
}

// WidthStats summarizes pre-activation interval widths layer by layer; the
// blow-up of widths with depth is the reason pure interval analysis cannot
// verify deep networks and MILP is needed (paper Sec. II (B)).
func (nb *NetworkBounds) WidthStats() []float64 {
	out := make([]float64, len(nb.Layers))
	for li, lb := range nb.Layers {
		var sum float64
		for _, iv := range lb.Pre {
			sum += iv.Width()
		}
		if len(lb.Pre) > 0 {
			out[li] = sum / float64(len(lb.Pre))
		}
	}
	return out
}

// Package quant implements post-training fixed-point quantization of
// networks — the paper's concluding remark (ii): quantized neural networks
// might make verification more scalable. Weights and biases are snapped to
// a symmetric b-bit integer grid per layer; the quantized model is returned
// as an ordinary nn.Network (with exactly representable weights), so the
// MILP verifier in package verify applies to it unchanged — the in-repo
// analogue of the SMT bitvector encoding the paper cites.
package quant

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Info reports what quantization did to a network.
type Info struct {
	Bits int
	// Scales holds the per-layer weight scale (value of one integer step).
	Scales []float64
	// MaxWeightError is the largest absolute weight perturbation.
	MaxWeightError float64
	// DistinctWeights counts distinct weight values after quantization.
	DistinctWeights int
}

// Quantize returns a copy of net whose weights and biases are rounded to a
// symmetric signed b-bit grid per layer (range ±(2^(b-1)−1) steps), plus
// quantization statistics. bits must be in [2, 16].
func Quantize(net *nn.Network, bits int) (*nn.Network, *Info, error) {
	if bits < 2 || bits > 16 {
		return nil, nil, fmt.Errorf("quant: bits %d outside [2, 16]", bits)
	}
	q := net.Clone()
	q.Name = fmt.Sprintf("%s-int%d", net.Name, bits)
	info := &Info{Bits: bits}
	levels := float64(int(1)<<(bits-1)) - 1 // e.g. 127 for int8
	distinct := map[float64]struct{}{}
	for li, l := range q.Layers {
		// Scale from the largest magnitude in the layer (weights + biases).
		maxAbs := 0.0
		for _, row := range l.W {
			for _, w := range row {
				if a := math.Abs(w); a > maxAbs {
					maxAbs = a
				}
			}
		}
		for _, b := range l.B {
			if a := math.Abs(b); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / levels
		if scale == 0 {
			scale = 1 // all-zero layer: any scale works
		}
		info.Scales = append(info.Scales, scale)
		snap := func(v float64) float64 {
			iv := math.Round(v / scale)
			if iv > levels {
				iv = levels
			}
			if iv < -levels {
				iv = -levels
			}
			nv := iv * scale
			if e := math.Abs(nv - v); e > info.MaxWeightError {
				info.MaxWeightError = e
			}
			distinct[nv] = struct{}{}
			return nv
		}
		for r := range l.W {
			for c := range l.W[r] {
				l.W[r][c] = snap(l.W[r][c])
			}
		}
		for r := range l.B {
			l.B[r] = snap(l.B[r])
		}
		_ = li
	}
	info.DistinctWeights = len(distinct)
	return q, info, nil
}

// OutputDeviation empirically measures the largest output difference
// between net and its quantized version over the provided probe inputs.
func OutputDeviation(net, quantized *nn.Network, probes [][]float64) float64 {
	worst := 0.0
	for _, x := range probes {
		a := net.Forward(x)
		b := quantized.Forward(x)
		for i := range a {
			if d := math.Abs(a[i] - b[i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

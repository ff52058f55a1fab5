package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"repro/pkg/vnn"
)

// The oracle answers "is this reply right" without calling the code under
// test: it parses the network from the same JSON the server receives and
// evaluates it with plain loops. A verdict is then checked from the
// outside — its witness must lie in the region and replay to the claimed
// value, and no sampled point of the region may beat the proven bound.

const (
	// valueTol is how closely a replayed witness must match a verdict's
	// value; Table II pins six decimals.
	valueTol = 1e-6
	// inferTol bounds the gap between the serving kernels' summation
	// order and the oracle's sequential one (DESIGN.md, "Why the
	// verification numerics did not change": observed <= 1e-10 relative).
	inferTol = 1e-9
	// oracleSamples is how many region points are tried against a bound.
	oracleSamples = 2048
)

type oracleNet struct {
	Layers []struct {
		W   [][]float64 `json:"w"`
		B   []float64   `json:"b"`
		Act int         `json:"act"` // 0 identity, 1 ReLU, 2 tanh
	} `json:"layers"`
}

func parseOracle(netJSON []byte) (*oracleNet, error) {
	var o oracleNet
	if err := json.Unmarshal(netJSON, &o); err != nil {
		return nil, fmt.Errorf("oracle: parse network: %w", err)
	}
	return &o, nil
}

func (o *oracleNet) forward(x []float64) []float64 {
	for _, l := range o.Layers {
		y := make([]float64, len(l.W))
		for i, row := range l.W {
			s := l.B[i]
			for j, w := range row {
				s += w * x[j]
			}
			switch l.Act {
			case 1:
				s = math.Max(s, 0)
			case 2:
				s = math.Tanh(s)
			}
			y[i] = s
		}
		x = y
	}
	return x
}

// maxOf is the largest of the listed outputs at x.
func (o *oracleNet) maxOf(x []float64, outputs []int) float64 {
	y := o.forward(x)
	best := math.Inf(-1)
	for _, i := range outputs {
		best = math.Max(best, y[i])
	}
	return best
}

func inBox(x []float64, box [][2]float64) bool {
	if len(x) != len(box) {
		return false
	}
	for i, v := range x {
		if v < box[i][0]-1e-9 || v > box[i][1]+1e-9 {
			return false
		}
	}
	return true
}

// sampleBox draws n points of the box, seeded.
func sampleBox(box [][2]float64, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pts := make([][]float64, n)
	for i := range pts {
		p := make([]float64, len(box))
		for j, iv := range box {
			p[j] = iv[0] + rng.Float64()*(iv[1]-iv[0])
		}
		pts[i] = p
	}
	return pts
}

// checkExtremum checks the verdict of a "max" query over outputs (sign +1)
// or a "min" query over one output (sign -1): it concluded, its witness is
// in the box and replays to the value, the proven bound covers the value,
// and no sample beats the bound.
func (o *oracleNet) checkExtremum(r *vnn.ResultJSON, box [][2]float64, outputs []int, sign float64, samples [][]float64) error {
	if !r.Exact || r.Outcome != "proved" {
		return fmt.Errorf("%s: outcome %q exact=%v, want a concluded query", r.Property, r.Outcome, r.Exact)
	}
	bound := r.UpperBound
	if sign < 0 {
		bound = r.LowerBound
	}
	if r.Value == nil || bound == nil || r.Witness == nil {
		return fmt.Errorf("%s: value, bound or witness missing", r.Property)
	}
	if !inBox(r.Witness, box) {
		return fmt.Errorf("%s: witness outside the region", r.Property)
	}
	at := func(x []float64) float64 {
		if sign < 0 {
			return o.forward(x)[outputs[0]]
		}
		return o.maxOf(x, outputs)
	}
	if got := at(r.Witness); math.Abs(got-*r.Value) > valueTol {
		return fmt.Errorf("%s: witness replays to %.9f, verdict says %.9f", r.Property, got, *r.Value)
	}
	if sign*(*bound-*r.Value) < -valueTol {
		return fmt.Errorf("%s: bound %.9f does not cover value %.9f", r.Property, *bound, *r.Value)
	}
	for _, x := range samples {
		if v := at(x); sign*(v-*bound) > valueTol {
			return fmt.Errorf("%s: sampled point reaches %.9f beyond the proven bound %.9f", r.Property, v, *bound)
		}
	}
	return nil
}

// checkAtMost checks an "output <= threshold" verdict. regionMax is an
// independently checked maximum over a set of outputs that includes output,
// so a threshold at or above it must have been proved.
func (o *oracleNet) checkAtMost(r *vnn.ResultJSON, box [][2]float64, output int, threshold, regionMax float64, samples [][]float64) error {
	switch r.Outcome {
	case "proved":
		for _, x := range samples {
			if v := o.forward(x)[output]; v > threshold+valueTol {
				return fmt.Errorf("%s: proved, yet a sampled point reaches %.9f", r.Property, v)
			}
		}
	case "violated":
		if threshold >= regionMax+valueTol {
			return fmt.Errorf("%s: violated, yet the region maximum is %.9f", r.Property, regionMax)
		}
		if !inBox(r.Witness, box) {
			return fmt.Errorf("%s: counterexample outside the region", r.Property)
		}
		if v := o.forward(r.Witness)[output]; v <= threshold-valueTol {
			return fmt.Errorf("%s: counterexample replays to %.9f, not above the threshold", r.Property, v)
		}
	default:
		return fmt.Errorf("%s: outcome %q, want proved or violated", r.Property, r.Outcome)
	}
	return nil
}

// checkOutputs compares served outputs with the oracle's, row by row.
func checkOutputs(got, want [][]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("infer: %d output rows for %d inputs", len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("infer: row %d has %d outputs, want %d", i, len(got[i]), len(want[i]))
		}
		for j, w := range want[i] {
			if math.Abs(got[i][j]-w) > inferTol*math.Max(1, math.Abs(w)) {
				return fmt.Errorf("infer: output[%d][%d] = %.12g, oracle %.12g", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

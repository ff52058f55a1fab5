package quant

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

func testNet(seed int64) *nn.Network {
	rng := rand.New(rand.NewSource(seed))
	return nn.New(nn.Config{
		Name: "q", InputDim: 4, Hidden: []int{8, 8}, OutputDim: 2,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rng)
}

func TestQuantizeValidatesBits(t *testing.T) {
	net := testNet(1)
	for _, bits := range []int{0, 1, 17, -8} {
		if _, _, err := Quantize(net, bits); err == nil {
			t.Fatalf("bits=%d accepted", bits)
		}
	}
}

func TestQuantizePreservesShape(t *testing.T) {
	net := testNet(2)
	q, info, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Validate(); err != nil {
		t.Fatalf("quantized network invalid: %v", err)
	}
	if q.InputDim() != net.InputDim() || q.OutputDim() != net.OutputDim() {
		t.Fatal("shape changed")
	}
	if len(info.Scales) != len(net.Layers) {
		t.Fatalf("scales = %d, want %d", len(info.Scales), len(net.Layers))
	}
	if q.Name == net.Name {
		t.Fatal("name should mark quantization")
	}
	// Original must be untouched.
	if net.Name != "q" {
		t.Fatal("original renamed")
	}
}

func TestQuantizeErrorBounds(t *testing.T) {
	net := testNet(3)
	for _, bits := range []int{4, 8, 12} {
		q, info, err := Quantize(net, bits)
		if err != nil {
			t.Fatal(err)
		}
		// Every weight error is at most half a step.
		for li, l := range q.Layers {
			step := info.Scales[li]
			for r := range l.W {
				for c := range l.W[r] {
					if d := math.Abs(l.W[r][c] - net.Layers[li].W[r][c]); d > step/2+1e-12 {
						t.Fatalf("bits=%d layer %d: weight error %g > step/2 %g", bits, li, d, step/2)
					}
				}
			}
		}
		if info.MaxWeightError < 0 {
			t.Fatal("negative error")
		}
	}
}

func TestMoreBitsLessError(t *testing.T) {
	net := testNet(4)
	_, i4, err := Quantize(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, i12, err := Quantize(net, 12)
	if err != nil {
		t.Fatal(err)
	}
	if i12.MaxWeightError >= i4.MaxWeightError {
		t.Fatalf("12-bit error %g should beat 4-bit %g", i12.MaxWeightError, i4.MaxWeightError)
	}
}

func TestWeightsOnGrid(t *testing.T) {
	net := testNet(5)
	q, info, err := Quantize(net, 6)
	if err != nil {
		t.Fatal(err)
	}
	for li, l := range q.Layers {
		scale := info.Scales[li]
		for _, row := range l.W {
			for _, w := range row {
				steps := w / scale
				if math.Abs(steps-math.Round(steps)) > 1e-9 {
					t.Fatalf("weight %g not on grid of %g", w, scale)
				}
			}
		}
	}
	if info.DistinctWeights <= 0 || info.DistinctWeights > (1<<6)*len(q.Layers) {
		t.Fatalf("distinct weights = %d implausible", info.DistinctWeights)
	}
}

func TestOutputDeviationShrinksWithBits(t *testing.T) {
	net := testNet(7)
	rng := rand.New(rand.NewSource(8))
	probes := make([][]float64, 64)
	for i := range probes {
		probes[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
	}
	q4, _, err := Quantize(net, 4)
	if err != nil {
		t.Fatal(err)
	}
	q12, _, err := Quantize(net, 12)
	if err != nil {
		t.Fatal(err)
	}
	d4 := OutputDeviation(net, q4, probes)
	d12 := OutputDeviation(net, q12, probes)
	if d12 >= d4 {
		t.Fatalf("12-bit deviation %g should beat 4-bit %g", d12, d4)
	}
	if d12 > 0.5 {
		t.Fatalf("12-bit deviation %g implausibly large", d12)
	}
}

func TestQuantizedNetworkStillVerifiable(t *testing.T) {
	// The quantized model is a plain ReLU network: forward works, weights
	// finite — the property the MILP reuse depends on.
	net := testNet(9)
	q, _, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	a, b := net.Forward(x), q.Forward(x)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1 {
			t.Fatalf("outputs diverged wildly: %v vs %v", a, b)
		}
	}
}

func TestZeroLayerScale(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{0, 0}}, B: []float64{0}, Act: nn.Identity},
	}}
	q, info, err := Quantize(net, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q.Layers[0].W[0][0] != 0 || info.Scales[0] != 1 {
		t.Fatalf("all-zero layer mishandled: %v %v", q.Layers[0].W, info.Scales)
	}
}

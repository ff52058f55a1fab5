package nn

import (
	"bytes"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

func testNet(t *testing.T, hidden []int) *Network {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	net := New(Config{
		Name: "t", InputDim: 3, Hidden: hidden, OutputDim: 2,
		HiddenAct: ReLU, OutputAct: Identity,
	}, rng)
	if err := net.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	return net
}

func TestActivations(t *testing.T) {
	cases := []struct {
		act      Activation
		in, out  float64
		deriv    float64
		derivTol float64
	}{
		{ReLU, -1, 0, 0, 0},
		{ReLU, 2, 2, 1, 0},
		{Tanh, 0, 0, 1, 1e-12},
		{Identity, -7, -7, 1, 0},
	}
	for _, c := range cases {
		if got := c.act.Apply(c.in); got != c.out {
			t.Errorf("%v.Apply(%g) = %g, want %g", c.act, c.in, got, c.out)
		}
		if got := c.act.Derivative(c.in); math.Abs(got-c.deriv) > c.derivTol {
			t.Errorf("%v.Derivative(%g) = %g, want %g", c.act, c.in, got, c.deriv)
		}
	}
}

func TestTanhDerivativeNumerically(t *testing.T) {
	for _, z := range []float64{-2, -0.5, 0.3, 1.7} {
		h := 1e-6
		num := (Tanh.Apply(z+h) - Tanh.Apply(z-h)) / (2 * h)
		if math.Abs(num-Tanh.Derivative(z)) > 1e-6 {
			t.Fatalf("tanh'(%g): analytic %g vs numeric %g", z, Tanh.Derivative(z), num)
		}
	}
}

func TestNewShapes(t *testing.T) {
	net := testNet(t, []int{5, 4})
	if net.InputDim() != 3 || net.OutputDim() != 2 {
		t.Fatalf("dims %d -> %d", net.InputDim(), net.OutputDim())
	}
	if len(net.Layers) != 3 {
		t.Fatalf("layers = %d, want 3", len(net.Layers))
	}
	if net.HiddenNeurons() != 9 {
		t.Fatalf("hidden neurons = %d, want 9", net.HiddenNeurons())
	}
	if net.Layers[2].Act != Identity || net.Layers[0].Act != ReLU {
		t.Fatal("activations misassigned")
	}
}

func TestForwardManual(t *testing.T) {
	// Hand-built net: y = relu(x1 - x2) summed with bias on a linear output.
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{1, -1}}, B: []float64{0}, Act: ReLU},
		{W: [][]float64{{2}}, B: []float64{3}, Act: Identity},
	}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := net.Forward([]float64{5, 2})[0]; got != 9 { // relu(3)*2+3
		t.Fatalf("Forward = %g, want 9", got)
	}
	if got := net.Forward([]float64{2, 5})[0]; got != 3 { // relu(-3)=0 -> 3
		t.Fatalf("Forward = %g, want 3", got)
	}
}

func TestForwardTraceConsistent(t *testing.T) {
	net := testNet(t, []int{6, 6})
	x := []float64{0.2, -0.4, 0.9}
	out := net.Forward(x)
	tr := net.ForwardTrace(x)
	for i := range out {
		if math.Abs(out[i]-tr.Output()[i]) > 1e-12 {
			t.Fatalf("trace output %v != forward %v", tr.Output(), out)
		}
	}
	// Post must equal act(Pre) everywhere.
	for li, l := range net.Layers {
		for j := range tr.Pre[li] {
			if math.Abs(tr.Post[li][j]-l.Act.Apply(tr.Pre[li][j])) > 1e-12 {
				t.Fatalf("layer %d neuron %d: post != act(pre)", li, j)
			}
		}
	}
}

func TestActivationPattern(t *testing.T) {
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{0, 0}, Act: ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: Identity},
	}}
	pat := net.ActivationPattern([]float64{2})
	if len(pat) != 1 || !pat[0][0] || pat[0][1] {
		t.Fatalf("pattern = %v, want [[true false]]", pat)
	}
}

func TestActivationPatternExcludesNonReLULayers(t *testing.T) {
	// tanh, ReLU, tanh hidden layers + linear output: only the ReLU layer
	// branches, so the pattern has exactly one row, mapped by ReLULayers.
	rng := rand.New(rand.NewSource(5))
	net := New(Config{Name: "mixed", InputDim: 2, Hidden: []int{3, 4, 3}, OutputDim: 1, HiddenAct: Tanh, OutputAct: Identity}, rng)
	net.Layers[1].Act = ReLU
	pat := net.ActivationPattern([]float64{0.5, -0.5})
	if len(pat) != 1 || len(pat[0]) != 4 {
		t.Fatalf("mixed net pattern shape %v, want one row of 4", pat)
	}
	if got := net.ReLULayers(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("ReLULayers = %v, want [1]", got)
	}
	// All-tanh: no branching layers, no rows.
	tanh := New(Config{Name: "tanh", InputDim: 2, Hidden: []int{3}, OutputDim: 1, HiddenAct: Tanh, OutputAct: Identity}, rng)
	if pat := tanh.ActivationPattern([]float64{1, 1}); len(pat) != 0 {
		t.Fatalf("tanh net pattern = %v, want empty", pat)
	}
	// A ReLU output layer does not branch a later decision: excluded.
	outOnly := &Network{Layers: []*Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: ReLU},
	}}
	if pat := outOnly.ActivationPattern([]float64{3}); len(pat) != 0 {
		t.Fatalf("single-layer net pattern = %v, want empty", pat)
	}
}

func TestActivationPatternZeroBoundary(t *testing.T) {
	// A pre-activation of exactly 0 counts as inactive (z > 0 is strict).
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: ReLU},
		{W: [][]float64{{1}}, B: []float64{0}, Act: Identity},
	}}
	if pat := net.ActivationPattern([]float64{0}); pat[0][0] {
		t.Fatal("zero pre-activation classified active, want inactive")
	}
	if pat := net.ActivationPattern([]float64{math.SmallestNonzeroFloat64}); !pat[0][0] {
		t.Fatal("smallest positive pre-activation classified inactive, want active")
	}
}

func TestActivationPatternSingleLayerNet(t *testing.T) {
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{2, 1}}, B: []float64{1}, Act: Identity},
	}}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	if pat := net.ActivationPattern([]float64{1, 1}); len(pat) != 0 {
		t.Fatalf("single-layer pattern = %v, want empty", pat)
	}
	if got := net.Forward([]float64{1, 1})[0]; got != 4 {
		t.Fatalf("single-layer Forward = %g, want 4", got)
	}
	if got := forwardOne(net, new(Scratch), []float64{1, 1})[0]; got != 4 {
		t.Fatalf("single-layer serving forward = %g, want 4", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	net := testNet(t, []int{4})
	cl := net.Clone()
	cl.Layers[0].W[0][0] += 100
	if net.Layers[0].W[0][0] == cl.Layers[0].W[0][0] {
		t.Fatal("Clone shares weight storage")
	}
}

func TestArchString(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := New(Config{Name: "p", InputDim: 84, Hidden: []int{25, 25, 25, 25}, OutputDim: 10, HiddenAct: ReLU}, rng)
	if got := net.ArchString(); got != "I4x25" {
		t.Fatalf("ArchString = %q, want I4x25", got)
	}
	mixed := New(Config{Name: "m", InputDim: 4, Hidden: []int{3, 5}, OutputDim: 1, HiddenAct: ReLU}, rng)
	if got := mixed.ArchString(); got != "I[3,5]" {
		t.Fatalf("ArchString = %q, want I[3,5]", got)
	}
}

func TestValidateCatchesBadShapes(t *testing.T) {
	net := testNet(t, []int{4})
	net.Layers[1].B = net.Layers[1].B[:0]
	if net.Validate() == nil {
		t.Fatal("Validate accepted truncated bias")
	}
	net2 := testNet(t, []int{4})
	net2.Layers[0].W[0][0] = math.NaN()
	if net2.Validate() == nil {
		t.Fatal("Validate accepted NaN weight")
	}
	net3 := testNet(t, []int{4})
	net3.InputNames = []string{"only-one"}
	if net3.Validate() == nil {
		t.Fatal("Validate accepted wrong name count")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	net := testNet(t, []int{5, 4})
	net.InputNames = []string{"a", "b", "c"}
	var buf bytes.Buffer
	if err := net.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3}
	want, got := net.Forward(x), back.Forward(x)
	for i := range want {
		if math.Abs(want[i]-got[i]) > 1e-12 {
			t.Fatalf("round-trip output differs: %v vs %v", want, got)
		}
	}
	if !slices.Equal(back.InputNames, net.InputNames) {
		t.Fatalf("input names %q, want %q", back.InputNames, net.InputNames)
	}
}

func TestSaveLoadFile(t *testing.T) {
	net := testNet(t, []int{4})
	path := filepath.Join(t.TempDir(), "net.json")
	if err := net.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 2, 3}
	if math.Abs(net.Forward(x)[0]-back.Forward(x)[0]) > 1e-12 {
		t.Fatal("file round-trip changed the network")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := Decode(bytes.NewBufferString(`{"layers":[]}`)); err == nil {
		t.Fatal("empty-layer network must fail validation")
	}
	if _, err := Decode(bytes.NewBufferString(`not json`)); err == nil {
		t.Fatal("non-JSON must fail")
	}
}

func TestQuickReLUMonotoneInPositiveDirection(t *testing.T) {
	// Property: for a single-ReLU net with a positive weight, increasing the
	// input never decreases the output.
	net := &Network{Layers: []*Layer{
		{W: [][]float64{{1.5}}, B: []float64{-0.3}, Act: ReLU},
	}}
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e12 || math.Abs(b) > 1e12 {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		return net.Forward([]float64{lo})[0] <= net.Forward([]float64{hi})[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickForwardDeterministic(t *testing.T) {
	net := testNet(t, []int{7, 7})
	f := func(x [3]float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.Abs(v) > 1e12 {
				return true
			}
		}
		a := net.Forward(x[:])
		b := net.Forward(x[:])
		return a[0] == b[0] && a[1] == b[1]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicInit(t *testing.T) {
	a := New(Config{Name: "a", InputDim: 3, Hidden: []int{4}, OutputDim: 1, HiddenAct: ReLU}, rand.New(rand.NewSource(9)))
	b := New(Config{Name: "b", InputDim: 3, Hidden: []int{4}, OutputDim: 1, HiddenAct: ReLU}, rand.New(rand.NewSource(9)))
	if a.Layers[0].W[0][0] != b.Layers[0].W[0][0] {
		t.Fatal("same seed produced different weights")
	}
}

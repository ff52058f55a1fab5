package vnn_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lp"
	"repro/internal/nn"
	"repro/pkg/vnn"
)

// fuzzNet is the fixed network both fuzz targets query: 3 inputs, two
// hidden ReLU layers, 2 outputs, seeded weights.
func fuzzNet() *vnn.Network {
	return nn.New(nn.Config{
		Name: "fuzz", InputDim: 3, Hidden: []int{5, 4}, OutputDim: 2,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rand.New(rand.NewSource(26)))
}

// fuzzRegion is the box [-1, 1]^3 cut by x0 + x1 ≤ 0.5.
func fuzzRegion() *vnn.Region {
	return &vnn.Region{
		Box: []vnn.Interval{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}},
		Linear: []vnn.LinearConstraint{{
			Coeffs: map[int]float64{0: 1, 1: 1}, Sense: lp.LE, RHS: 0.5, Name: "cut",
		}},
	}
}

// FuzzPropertySpec drives wire bytes through the one answer path: JSON →
// PropertySpec → Property → Validate → Verify on one compiled artifact.
// Every property Validate accepts must be answered, and the answer must
// keep the Result contract: a sound bracket, a witness in the region that
// replays bitwise to Value, and verdicts that agree with the threshold.
func FuzzPropertySpec(f *testing.F) {
	net, region := fuzzNet(), fuzzRegion()
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, net, region, vnn.Options{Workers: 1, MaxNodes: 64})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"kind":"max","outputs":[0,1]}`,
		`{"kind":"max","output":1}`,
		`{"kind":"max","outputs":[-1]}`,
		`{"kind":"max","outputs":[9223372036854775807]}`,
		`{"kind":"min","output":0}`,
		`{"kind":"min","output":-3}`,
		`{"kind":"max_linear","coeffs":{"0":1,"1":-1}}`,
		`{"kind":"max_linear","coeffs":{}}`,
		`{"kind":"max_linear","coeffs":{"-0":2}}`,
		`{"kind":"max_linear","coeffs":{"0":-0}}`,
		`{"kind":"at_most","output":0,"threshold":0.1}`,
		`{"kind":"at_most","output":1,"threshold":-0}`,
		`{"kind":"at_most","output":0,"threshold":1e308}`,
		`{"kind":"at_most","output":0,"threshold":-1e308}`,
		`{"kind":"at_most","output":99,"threshold":1}`,
		`{"kind":"linear_at_most","coeffs":{"0":1,"1":1},"threshold":0.5}`,
		`{"kind":"linear_at_most","coeffs":{"1":-2},"threshold":-1e308}`,
		`{"kind":"resilience","x0":[0,0,0],"output":0,"threshold":5,"max_iterations":9}`,
		`{"kind":"resilience","x0":[0.9,0.9,0],"output":1,"threshold":0}`,
		`{"kind":"resilience","x0":[0,0],"output":0,"threshold":1}`,
		`{"kind":"resilience","x0":[5,0,0],"output":0,"threshold":1e308}`,
		`{"kind":"resilience","x0":[0,0,0],"output":0,"threshold":-1e308}`,
		`{"kind":"resilience","x0":[` + strings.TrimSuffix(strings.Repeat("0.5,", 10000), ",") + `],"output":0,"threshold":1}`,
		`{"kind":""}`,
		`{"kind":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec vnn.PropertySpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		if spec.Kind == "resilience" && (spec.MaxIterations <= 0 || spec.MaxIterations > 2) {
			spec.MaxIterations = 2
		}
		prop, err := spec.Property()
		if err != nil || (&vnn.Verification{Properties: []vnn.Property{prop}}).Validate(net, region) != nil {
			return
		}
		r, err := vnn.VerifyOne(ctx, cn, prop)
		if err != nil {
			t.Fatalf("%s: validated property not answered: %v", data, err)
		}
		if err := checkResult(net, region, spec, r); err != nil {
			t.Fatalf("%s: %v (result %+v)", data, err, r)
		}
	})
}

// FuzzAnalysisSpec drives wire bytes through the portfolio's answer path:
// JSON → AnalysisSpec → Analysis → Validate → Analyze on one compiled
// artifact. Every analysis Validate accepts must run without error. The
// open-ended work parameters are clamped so one input runs in
// milliseconds; a service caps them per request the same way.
func FuzzAnalysisSpec(f *testing.F) {
	net, region := fuzzNet(), fuzzRegion()
	ctx := context.Background()
	cn, err := vnn.Compile(ctx, net, region, vnn.Options{Workers: 1, MaxNodes: 64})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"kind":"verify","properties":[{"kind":"max","outputs":[0,1]},{"kind":"at_most","output":1,"threshold":0.2}]}`,
		`{"kind":"verify","properties":[{"kind":"resilience","x0":[0,0,0],"output":0,"threshold":5}]}`,
		`{"kind":"verify","properties":[{"kind":"resilience","x0":[2,0,0],"output":0,"threshold":5}]}`,
		`{"kind":"verify","properties":[{"kind":"min","output":2}]}`,
		`{"kind":"verify"}`,
		`{"kind":"coverage","max_tests":20,"seed":3}`,
		`{"kind":"coverage","data":[[0,0,0],[1,-1,0]],"target_sign":0.5}`,
		`{"kind":"coverage","data":[[0,0]]}`,
		`{"kind":"traceability","data":[[0,0,0],[0.5,0.5,0.5]],"top_k":2}`,
		`{"kind":"traceability","data":[[0,0,0]],"feature_names":["a","b","c"],"top_k":-1}`,
		`{"kind":"quant_sweep","bits":[8,2],"properties":[{"kind":"max","outputs":[0]}]}`,
		`{"kind":"quant_sweep","bits":[2],"properties":[{"kind":"resilience","x0":[0,0,0],"output":0,"threshold":0.4}]}`,
		`{"kind":"quant_sweep","bits":[8,3],"properties":[{"kind":"resilience","x0":[0.5,-0.7,0.3],"output":0,"threshold":0.105}]}`,
		`{"kind":"quant_sweep","bits":[1],"properties":[{"kind":"max","outputs":[0]}]}`,
		`{"kind":"data_validation","data":[[],[0]],"rules":[{"kind":"dimensions","x_dim":1}]}`,
		`{"kind":"data_validation","data":[[0,0,0],[9,9]],"labels":[[1],[2]],"rules":[{"kind":"finite"},{"kind":"range","lo":-1,"hi":1},{"kind":"dimensions","x_dim":3,"y_dim":1}]}`,
		`{"kind":"falsify","outputs":[0,1],"restarts":2,"steps":5,"seed":4}`,
		`{"kind":"falsify","outputs":[2]}`,
		`{"kind":"monitor_audit","data":[[0,0,0],[0.5,-0.5,0]],"gamma":1,"audit_tests":10}`,
		`{"kind":"monitor_audit","data":[[0,0,0]],"layers":[1,0]}`,
		`{"kind":"nope"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec vnn.AnalysisSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		for i := range spec.Properties {
			if p := &spec.Properties[i]; p.Kind == "resilience" && (p.MaxIterations <= 0 || p.MaxIterations > 2) {
				p.MaxIterations = 2
			}
		}
		if spec.AuditTests == 0 { // 0 means 1000
			spec.AuditTests = 20
		}
		spec.MaxTests, spec.AuditTests = min(spec.MaxTests, 20), min(spec.AuditTests, 20)
		spec.Restarts, spec.Steps = min(spec.Restarts, 2), min(spec.Steps, 10)
		if len(spec.Bits) > 2 {
			spec.Bits = spec.Bits[:2]
		}
		a, err := spec.Analysis()
		if err != nil || a.Validate(net, region) != nil {
			return
		}
		if _, err := vnn.AnalyzeOne(ctx, cn, a); err != nil {
			t.Fatalf("%s: validated analysis not answered: %v", data, err)
		}
	})
}

// checkResult holds one answer to the Result contract.
func checkResult(net *vnn.Network, region *vnn.Region, spec vnn.PropertySpec, r *vnn.Result) error {
	if !(r.LowerBound <= r.UpperBound) {
		return fmt.Errorf("bracket [%g, %g] inverted", r.LowerBound, r.UpperBound)
	}
	threshold := math.NaN()
	if spec.Threshold != nil {
		threshold = *spec.Threshold
	}
	switch spec.Kind {
	case "at_most", "linear_at_most":
		if r.Outcome == vnn.Violated && !(r.Value > threshold) {
			return fmt.Errorf("violated at value %g, threshold %g", r.Value, threshold)
		}
		if r.Outcome == vnn.Proved && !(r.UpperBound <= threshold) {
			return fmt.Errorf("proved with upper bound %g above threshold %g", r.UpperBound, threshold)
		}
	case "resilience":
	default:
		if r.Outcome == vnn.Violated {
			return fmt.Errorf("a bound query reported a violation")
		}
	}
	if r.Witness == nil {
		return nil
	}
	inside := region.Contains(r.Witness, 1e-9)
	if spec.Kind == "resilience" { // the search domain is the region's box
		inside = (&vnn.Region{Box: region.Box}).Contains(r.Witness, 1e-9)
	}
	if !inside {
		return fmt.Errorf("witness %v outside the region", r.Witness)
	}
	y := net.Forward(r.Witness)
	switch spec.Kind {
	case "max":
		for _, o := range maxOutputs(spec) {
			if y[o] == r.Value {
				return nil
			}
		}
		return fmt.Errorf("witness replays to %v, value %g", y, r.Value)
	case "max_linear", "linear_at_most":
		if v := replayLinear(spec.Coeffs, y); v != r.Value {
			return fmt.Errorf("witness replays to %g, value %g", v, r.Value)
		}
	default: // min, at_most, resilience: one output
		if y[*spec.Output] != r.Value {
			return fmt.Errorf("witness replays to %g, value %g", y[*spec.Output], r.Value)
		}
	}
	return nil
}

func maxOutputs(spec vnn.PropertySpec) []int {
	if len(spec.Outputs) == 0 {
		return []int{*spec.Output}
	}
	return spec.Outputs
}

// replayLinear is Σ c·y over the functional's outputs in ascending order,
// the order the engine sums a witness's value in.
func replayLinear(raw map[string]float64, y []float64) float64 {
	coeffs := map[int]float64{}
	for k, c := range raw {
		i, _ := strconv.Atoi(k)
		coeffs[i] = c
	}
	keys := make([]int, 0, len(coeffs))
	for k := range coeffs {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var v float64
	for _, k := range keys {
		v += coeffs[k] * y[k]
	}
	return v
}

// FuzzRegionSpec drives wire bytes into a region: building one never
// panics, and a region the builder accepts either fails validation against
// the network or compiles.
func FuzzRegionSpec(f *testing.F) {
	net := fuzzNet()
	for _, seed := range []string{
		`{"name":"left_occupied"}`,
		`{"name":"nope"}`,
		`{"name":"front_close","box":[[0,1]]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]]}`,
		`{"box":[[1,-1],[-1,1],[-1,1]]}`,
		`{"box":[[-1,1],[-1,1]]}`,
		`{"box":[[-1e308,1e308],[-1,1],[-1,1]]}`,
		`{"box":[[-0,0],[-1,1],[-1,1]],"linear":[{"coeffs":{"0":1,"2":1},"sense":"<=","rhs":0.5}]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]],"linear":[{"coeffs":{"7":1},"sense":">=","rhs":0}]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]],"linear":[{"coeffs":{"-1":1},"sense":"=","rhs":0}]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]],"linear":[{"coeffs":{},"sense":"<=","rhs":0}]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]],"linear":[{"coeffs":{"0":1},"sense":"<","rhs":0}]}`,
		`{"box":[[-1,1],[-1,1],[-1,1]],"linear":[{"coeffs":{"0":1},"sense":">=","rhs":5}]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec vnn.RegionSpec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		region, err := spec.Region()
		if err != nil || region.Validate(net) != nil {
			return
		}
		if _, err := vnn.Compile(context.Background(), net, region, vnn.Options{Workers: 1}); err != nil {
			t.Fatalf("%s: validated region does not compile: %v", data, err)
		}
	})
}

// sameNetwork reports how two decoded networks differ: names (a nil list
// is not an empty one), layer shapes, every weight's and bias's bits, and
// each activation.
func sameNetwork(a, b *vnn.Network) error {
	if a.Name != b.Name || !reflect.DeepEqual(a.InputNames, b.InputNames) || !reflect.DeepEqual(a.OutputNames, b.OutputNames) {
		return fmt.Errorf("names %q %q %q against %q %q %q", a.Name, a.InputNames, a.OutputNames, b.Name, b.InputNames, b.OutputNames)
	}
	if len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("%d layers against %d", len(a.Layers), len(b.Layers))
	}
	for i, la := range a.Layers {
		lb := b.Layers[i]
		if la.Act != lb.Act || len(la.W) != len(lb.W) {
			return fmt.Errorf("layer %d: act %d, %d rows against act %d, %d rows", i, la.Act, len(la.W), lb.Act, len(lb.W))
		}
		x := append([][]float64{la.B}, la.W...)
		y := append([][]float64{lb.B}, lb.W...)
		for r := range x {
			if len(x[r]) != len(y[r]) {
				return fmt.Errorf("layer %d row %d (0 is b): %d values against %d", i, r, len(x[r]), len(y[r]))
			}
			for j := range x[r] {
				if math.Float64bits(x[r][j]) != math.Float64bits(y[r][j]) {
					return fmt.Errorf("layer %d row %d (0 is b) [%d]: %v against %v", i, r, j, x[r][j], y[r][j])
				}
			}
		}
	}
	return nil
}

// FuzzUnmarshalNetwork drives client bytes through the network decoder
// every request carrying a network goes through. Whatever the one-pass
// path decodes, encoding/json must decode to the identical network, and
// UnmarshalNetwork must agree with encoding/json on success, on the error
// text and on the network. It must never panic, and neither may a one-row
// serving forward pass on what it accepts. An accepted network re-marshals
// through MarshalNetwork and decodes again to the same Fingerprint over
// the unit box.
func FuzzUnmarshalNetwork(f *testing.F) {
	valid, err := vnn.MarshalNetwork(fuzzNet())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	wide := `{"name":"w","layers":[{"w":[[` + strings.Repeat("0,", 4096) + `0]],"b":[0],"act":1}]}`
	for _, seed := range []string{
		wide,
		`{"name":"w","layers":[{"w":[[-0,1]],"b":[0],"act":1}]}`,
		`{"name":"w","layers":[{"w":[[5e-324,1]],"b":[-5e-324],"act":1}]}`,
		`{"name":"w","layers":[{"w":[[1e308,1e308]],"b":[1e308],"act":0}]}`,
		`{"name":"w","layers":[{"w":[[1e400]],"b":[0],"act":1}]}`,
		`{"name":"w","layers":[{"w":[[1,2]],"b":[0]},{"w":[[1,2,3]],"b":[0]}]}`,
		`{"name":"w","layers":[{"w":[[1,2],[3]],"b":[0,0]}]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0,0]}]}`,
		`{"name":"w","layers":[]}`,
		`{"name":"w","layers":[null]}`,
		`{"name":"w","layers":[{"w":[],"b":[]}]}`,
		`{"name":"w","layers":[{"w":[[]],"b":[0]}]}`,
		`{"name":"w","input_names":["a","b","c"],"layers":[{"w":[[1]],"b":[0]}]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0],"act":9223372036854775807}]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0],"act":-1}]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0],"act":7}]}`,
		`{"name":"w","layers":[{"w":[[1,2],[3,4]],"b":[0,1],"act":1},{"w":[[1,2]],"b":[0]}]}`,
		`{"layers":[{"act":-0,"b":[1e-7],"w":[[9007199254740993]]}],"output_names":["o"],"name":"x","input_names":["i"]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0],"act":1.0}]}`,
		`{"name":"w","layers":[{"w":[[1]],"b":[0],"act":1,"act":0}]}`,
		`{"name":"w","layers":[{"W":[[1]],"b":[0]}]}`,
		`{"name":"w\u0041","input_names":[],"layers":[{"w":[[1]],"b":[0]}]} `,
		`{"name":"w","input_names":null,"layers":[{"w":[[1]],"b":[0]}]}`,
		`{"name":"w","layers":[{"w":[[1,2],[3]],"b":[0,0],"act":0}]}`,
		"{\"name\":\"\xff\",\"layers\":[{\"w\":[[1]],\"b\":[0]}]}",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := vnn.UnmarshalNetworkJSON(data)
		if fast, ok := vnn.DecodeNetworkOnePass(data); ok {
			if refErr != nil {
				t.Fatalf("%s: one-pass decode accepts it, encoding/json says %v", data, refErr)
			}
			if err := sameNetwork(fast, ref); err != nil {
				t.Fatalf("%s: one-pass against encoding/json: %v", data, err)
			}
		}
		net, err := vnn.UnmarshalNetwork(data)
		switch {
		case (err == nil) != (refErr == nil):
			t.Fatalf("%s: UnmarshalNetwork %v, encoding/json %v", data, err, refErr)
		case err != nil:
			if err.Error() != refErr.Error() {
				t.Fatalf("%s: error %q, encoding/json %q", data, err, refErr)
			}
			return
		}
		if err := sameNetwork(net, ref); err != nil {
			t.Fatalf("%s: UnmarshalNetwork against encoding/json: %v", data, err)
		}
		box := make([]vnn.Interval, net.InputDim())
		for i := range box {
			box[i] = vnn.Interval{Lo: 0, Hi: 1}
		}
		region := &vnn.Region{Box: box}
		out := make([]float64, net.OutputDim())
		net.ForwardBatchInto([][]float64{out}, net.NewScratch(), [][]float64{make([]float64, net.InputDim())})
		fp, fpErr := vnn.Fingerprint(net, region, vnn.Options{})
		again, err := vnn.MarshalNetwork(net)
		if err != nil {
			t.Fatalf("%s: accepted network does not marshal: %v", data, err)
		}
		back, err := vnn.UnmarshalNetwork(again)
		if err != nil {
			t.Fatalf("%s: re-marshalled network %s does not decode: %v", data, again, err)
		}
		fp2, fpErr2 := vnn.Fingerprint(back, region, vnn.Options{})
		if fp != fp2 || (fpErr == nil) != (fpErr2 == nil) {
			t.Fatalf("%s: fingerprint %s (%v), after a round trip %s (%v)", data, fp, fpErr, fp2, fpErr2)
		}
	})
}

package vnnserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jsonscan"
	"repro/internal/nn"
	"repro/pkg/vnn"
)

// hotBody is an infer_hot-shaped request: rows×84 inputs by fingerprint.
// In each row about half the values come from {0, 1, 0.5, 0.225}, as the
// dataset's one-hot and lane features do, and the rest are rand.Float64
// values, printed with 16 or 17 digits.
func hotBody(rows int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	picks := []float64{0, 1, 0.5, 0.225}
	inputs := make([][]float64, rows)
	for i := range inputs {
		inputs[i] = make([]float64, 84)
		for j := range inputs[i] {
			if rng.Intn(2) == 0 {
				inputs[i][j] = picks[rng.Intn(len(picks))]
			} else {
				inputs[i][j] = rng.Float64()
			}
		}
	}
	body, err := json.Marshal(InferRequest{
		Fingerprint:        "vnn1-06e53083ba6df3c8c04b8fd98fffbe8513aaac7585afb6b1535570c8efcf271d",
		MonitorFingerprint: "vnnm1-0a35a490740cd04a11d7b8e0470c59174af22058959556afcec45048447bf7af",
		Inputs:             inputs,
	})
	if err != nil {
		panic(err)
	}
	return body
}

// fullBody sets every InferRequest field, monitor included.
func fullBody() []byte {
	net := nn.New(nn.Config{
		Name: "wire", InputDim: 3, Hidden: []int{4}, OutputDim: 2,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
	}, rand.New(rand.NewSource(3)))
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		panic(err)
	}
	body, err := json.Marshal(InferRequest{
		Model:       "m",
		Network:     netJSON,
		Fingerprint: "vnn1-x",
		Region:      vnn.RegionSpec{Box: [][2]float64{{-1, 1}, {-1, 1}, {0, 0.5}}},
		Inputs:      [][]float64{{0.1, -0.2, 0.3}, {1e-7, 2.5e+3, -0}},
		Monitor: &InferMonitorSpec{
			Data:   [][]float64{{0.5, 0.25, 0.125}, {}},
			Gamma:  1,
			Layers: []int{0},
		},
		MonitorFingerprint: "vnnm1-y",
		Options:            QueryOptions{Tighten: true, Workers: 2, MaxNodes: 10},
		TimeoutMS:          250,
	})
	if err != nil {
		panic(err)
	}
	return body
}

// churnBody is an infer_churn-shaped request: the whole workload in the
// body. The network is 84 inputs, two hidden layers of 8 and 10 outputs,
// He-initialised and named as a predictor is (a 19 KB document); the
// region is the unit box with one coordinate widened; 64 inputs and a
// 256-row monitor dataset are hotBody's rows.
func churnBody(seed int64) []byte {
	names := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = prefix + strconv.Itoa(i)
		}
		return out
	}
	net := nn.New(nn.Config{
		Name: "I2x8", InputDim: 84, Hidden: []int{8, 8}, OutputDim: 10,
		HiddenAct: nn.ReLU, OutputAct: nn.Identity,
		InputNames: names("feature_", 84), OutputNames: names("mdn_", 10),
	}, rand.New(rand.NewSource(seed)))
	netJSON, err := vnn.MarshalNetwork(net)
	if err != nil {
		panic(err)
	}
	box := make([][2]float64, 84)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	box[5][0] = -0.0017360423
	var hot, data InferRequest
	if json.Unmarshal(hotBody(64, seed), &hot) != nil || json.Unmarshal(hotBody(256, seed+1), &data) != nil {
		panic("hot body")
	}
	body, err := json.Marshal(InferRequest{
		Network: netJSON,
		Region:  vnn.RegionSpec{Box: box},
		Inputs:  hot.Inputs,
		Monitor: &InferMonitorSpec{Data: data.Inputs, Gamma: 1},
	})
	if err != nil {
		panic(err)
	}
	return body
}

// sameMatrix compares two decoded matrices bit for bit, nil-ness of the
// matrix and of every row included.
func sameMatrix(a, b FloatMatrix) error {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return fmt.Errorf("matrix %v against %v", a, b)
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || len(a[i]) != len(b[i]) {
			return fmt.Errorf("row %d: %v against %v", i, a[i], b[i])
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				return fmt.Errorf("[%d][%d]: %v against %v", i, j, a[i][j], b[i][j])
			}
		}
	}
	return nil
}

// sameNetwork compares two decoded networks: names, shapes, every
// weight's and bias's bits and each activation.
func sameNetwork(a, b *vnn.Network) error {
	if a.Name != b.Name || !reflect.DeepEqual(a.InputNames, b.InputNames) || !reflect.DeepEqual(a.OutputNames, b.OutputNames) || len(a.Layers) != len(b.Layers) {
		return fmt.Errorf("network %q %q %q (%d layers) against %q %q %q (%d layers)",
			a.Name, a.InputNames, a.OutputNames, len(a.Layers), b.Name, b.InputNames, b.OutputNames, len(b.Layers))
	}
	for i, la := range a.Layers {
		lb := b.Layers[i]
		if la.Act != lb.Act {
			return fmt.Errorf("layer %d: act %d against %d", i, la.Act, lb.Act)
		}
		if err := sameMatrix(append(FloatMatrix{la.B}, la.W...), append(FloatMatrix{lb.B}, lb.W...)); err != nil {
			return fmt.Errorf("layer %d (row 0 is b): %w", i, err)
		}
	}
	return nil
}

// sameRequest reports how two decoded requests differ: matrices bit for
// bit, everything else by reflect.DeepEqual, which tells a nil slice from
// an empty one. b is the strict decode, which leaves the network raw; a
// network a holds decoded must be UnmarshalNetwork's of b's bytes.
func sameRequest(a, b *InferRequest) error {
	if a.network != nil {
		want, err := vnn.UnmarshalNetwork(b.Network)
		if err != nil {
			return fmt.Errorf("network decoded in the pass, strict bytes refused: %v", err)
		}
		if err := sameNetwork(a.network, want); err != nil {
			return fmt.Errorf("network: %w", err)
		}
	}
	if err := sameMatrix(a.Inputs, b.Inputs); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	if (a.Monitor == nil) != (b.Monitor == nil) {
		return fmt.Errorf("monitor %v against %v", a.Monitor, b.Monitor)
	}
	if a.Monitor != nil {
		if err := sameMatrix(a.Monitor.Data, b.Monitor.Data); err != nil {
			return fmt.Errorf("monitor data: %w", err)
		}
		am, bm := *a.Monitor, *b.Monitor
		am.Data, bm.Data = nil, nil
		if !reflect.DeepEqual(am, bm) {
			return fmt.Errorf("monitor %+v against %+v", am, bm)
		}
	}
	ar, br := *a, *b
	ar.Inputs, br.Inputs, ar.Monitor, br.Monitor = nil, nil, nil, nil
	ar.network, br.network = nil, nil
	if !reflect.DeepEqual(ar, br) {
		return fmt.Errorf("request %+v against %+v", ar, br)
	}
	return nil
}

// FuzzInferRequest holds the one-pass decoder to the strict one on
// arbitrary bytes. Whenever inferDecoder finishes a document, decodeBody
// must accept it and decode the same request; and decodeInfer, the
// handler's decoder, must agree with decodeBody on success against
// failure, on the error text and on the request.
func FuzzInferRequest(f *testing.F) {
	f.Add(hotBody(2, 1))
	f.Add(fullBody())
	for _, seed := range []string{
		`{"INPUTS":[[1,2]],"fingerprint":"a"}`,
		`{"inputs":[[1,2]],"fingerprint":"a"}`,
		`{"inputs":[[1]],"inputs":[[2,3]]}`,
		`{"inputs":[[1]],"inputs":null}`,
		`{"inputs":null}`,
		`{"monitor":null,"inputs":[]}`,
		`{"monitor":{"data":[[1]],"layers":null}}`,
		`{"monitor":{"data":[[1]],"layers":[]}}`,
		`{"monitor":{"data":null}}`,
		`{"inputs":[[-0,1e400]]}`,
		`{"inputs":[[-0]]}`,
		`{"inputs":[[01]]}`,
		`{"inputs":[[1.]]}`,
		`{"inputs":[[.5]]}`,
		`{"inputs":[[1E-7, 2.5e+3 ,0.1e1]] , "timeout_ms" : 5 }`,
		`{"extra":1,"inputs":[[1]]}`,
		`{"region":{"box":[[0,1]],"extra":1}}`,
		`{"options":{"tighten":true,"extra":1}}`,
		`{"monitor":{"data":[[1]],"extra":1}}`,
		`{"fingerprint":"x","inputs":[[1]]} trailing garbage`,
		`{"fingerprint":"x","inputs":[[1]]}` + " \n\t",
		`{"fingerprint":"a\"b\\u0041","model":"é"}`,
		`{"fingerprint":"\xff"}`,
		``, `null`, `[]`, `{}`, `{"gamma":1}`, `{"timeout_ms":1.5}`,
		`{"network":{"name":"n","layers":[{"w":[[1,2]],"b":[0],"act":1}]},"inputs":[[1,2]]}`,
		`{"network":{"name":"n","layers":[{"w":[[1,2]],"b":[0,0],"act":1}]},"inputs":[[1,2]]}`,
		`{"network":{"name":"n","layers":[{"w":[[1,2]],"b":[0],"act":1}]}}`,
		`{"network":{"name":"n","layers":[{"W":[[1,2]],"b":[0]}]},"inputs":[[1,2]]}`,
		`{"network":null,"inputs":[[1,2]]}`,
		`{"network":{"name":"n","layers":[{"w":[[1e400]],"b":[0]}]}}`,
	} {
		f.Add([]byte(seed))
	}
	f.Add(churnBody(1))
	f.Fuzz(func(t *testing.T, body []byte) {
		var want InferRequest
		wantErr := decodeBody(body, &want)

		var fast InferRequest
		if d := (inferDecoder{Walker: jsonscan.Walker{B: body}}); d.request(&fast) {
			if wantErr != nil {
				t.Fatalf("%q: one-pass decoder accepts it, strict decoder says %v", body, wantErr)
			}
			if err := sameRequest(&fast, &want); err != nil {
				t.Fatalf("%q: one-pass against strict: %v", body, err)
			}
			// The pass leaves a network raw only if UnmarshalNetwork
			// refuses it.
			if fast.network == nil && len(fast.Network) > 0 {
				if _, err := vnn.UnmarshalNetwork(fast.Network); err == nil {
					t.Fatalf("%q: the pass left a decodable network raw", body)
				}
			}
		}

		var got InferRequest
		gotErr := decodeInfer(body, &got)
		switch {
		case (gotErr == nil) != (wantErr == nil):
			t.Fatalf("%q: decodeInfer %v, decodeBody %v", body, gotErr, wantErr)
		case gotErr != nil:
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%q: error %q, strict %q", body, gotErr, wantErr)
			}
		default:
			if err := sameRequest(&got, &want); err != nil {
				t.Fatalf("%q: decodeInfer against strict: %v", body, err)
			}
		}
	})
}

// TestInferDecoderTakesCanonicalBodies pins that the fast path is the one
// taken for what clients send: the harness-shaped and full bodies, also
// indented, never fall back to the strict decoder, and a network they
// carry is decoded in the pass, by UnmarshalNetwork's own one pass.
func TestInferDecoderTakesCanonicalBodies(t *testing.T) {
	var indented bytes.Buffer
	if err := json.Indent(&indented, fullBody(), " ", "\t"); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"hot": hotBody(64, 1), "full": fullBody(), "indented": indented.Bytes(), "churn": churnBody(1)} {
		var req InferRequest
		if d := (inferDecoder{Walker: jsonscan.Walker{B: body}}); !d.request(&req) {
			t.Fatalf("%s body: one-pass decoder gave up", name)
		}
		if len(req.Network) > 0 && req.network == nil {
			t.Fatalf("%s body: the network was left for prepareInfer to decode", name)
		}
		if name == "churn" {
			if req.network == nil || len(req.Network) < 17<<10 || len(req.Monitor.Data) != 256 {
				t.Fatalf("churn body: network %d bytes (decoded %v), %d monitor rows", len(req.Network), req.network != nil, len(req.Monitor.Data))
			}
		}
	}
}

// TestInferDecodeAllocationBounded bounds what a matrix allocates before
// its values are parsed: the bytes after a matrix must not size it, and a
// malformed matrix may ask for at most the capped hint. Each body is 2 MiB
// of "[," after a one-value matrix whose end is spaced, so that no "]]"
// closes it; sized by those bytes, the arrays would take 32 MiB.
func TestInferDecodeAllocationBounded(t *testing.T) {
	tail := strings.Repeat("[,", 1<<20)
	for _, c := range []struct {
		name, body string
		ok         bool
	}{
		{"string after the matrix", `{"inputs":[[1] ],"model":"` + tail + `]]"}`, true},
		{"trailing data", `{"inputs":[[1] ]}` + tail + "]]", false},
		{"malformed matrix", `{"inputs":[[1] ,` + tail + "]]}", false},
	} {
		body := []byte(c.body)
		var req InferRequest
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeInfer(body, &req)
		runtime.ReadMemStats(&after)
		if (err == nil) != c.ok {
			t.Fatalf("%s: error %v", c.name, err)
		}
		// The model string is a copy of the tail; the rest is the strict
		// decoder's small buffers and at most the capped hint.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(tail)+2<<20); got > limit {
			t.Errorf("%s: decode allocated %d bytes, want at most %d", c.name, got, limit)
		}
		if c.ok && cap(req.Inputs) != 1 {
			t.Errorf("%s: %d rows' room for one row", c.name, cap(req.Inputs))
		}
	}
}

// BenchmarkInferDecodeWorkload decodes an infer_churn-shaped body, the
// whole workload with a 19 KB network, through decodeInfer, the handler's
// decode, the network's decode included.
func BenchmarkInferDecodeWorkload(b *testing.B) {
	body := churnBody(1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req InferRequest
		if err := decodeInfer(body, &req); err != nil || req.network == nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInferDecode decodes an infer_hot-shaped body, 64 inputs of 84
// features by fingerprint, through decodeInfer, the handler's decode.
func BenchmarkInferDecode(b *testing.B) {
	body := hotBody(64, 1)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req InferRequest
		if err := decodeInfer(body, &req); err != nil {
			b.Fatal(err)
		}
	}
}

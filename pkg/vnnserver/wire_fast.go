// A one-pass decoder for the /v1/infer body, and FloatMatrix's decoder.
//
// On an infer_hot request (64 inputs of 84 features by fingerprint, a
// 39 KB body) decoding was 70 % of vnnd's CPU against 3 % for the kernels
// and the monitor: encoding/json scanned the whole body once to find the
// value and again to skip over each Unmarshaler field, and FloatMatrix
// then walked its bytes once to count the values before parsing each
// through strconv. inferDecoder walks the body once instead. inputs and
// monitor.data are parsed number by number into one backing array each,
// sized by a vectorised count of commas and brackets, by the number
// routine of internal/jsonscan: digits gathered eight at a time, an exact
// multiply where Clinger's path applies and Eisel–Lemire over a 128-bit
// table of powers of ten otherwise, so that strconv sees only
// mantissas of more than 19 digits and the few products Eisel–Lemire
// cannot round. The network is handed, delimited, to vnn.UnmarshalNetwork,
// whose own one-pass decoder writes each layer into its packed serving
// matrix, and the request keeps the network it gives: infer_churn sends a
// 19 KB network in every body, which encoding/json scanned once into a
// RawMessage and then decoded again by reflection. Every other value is
// delimited and decoded by encoding/json on its own small slice, unknown
// fields refused.
//
// It is a fast path, not a second decoder. It decodes only documents in
// canonical shape: every key spelled exactly as its struct tag, unescaped
// and at most once, bulk fields arrays rather than null. Anything else —
// another spelling, a duplicate key, a null bulk field, any syntax error —
// makes it give up, and decodeBody, the strict decoder every route uses,
// decodes the same bytes. So what is accepted or rejected, every decoded
// value and every error text are decodeBody's; FuzzInferRequest holds the
// two to that, and the network to UnmarshalNetwork of the bytes decodeBody
// keeps. Encoding stays with encoding/json: a Marshaler's output is
// re-scanned and compacted, which made a hand-rolled encoder slower than
// the reflective path it replaced.

package vnnserver

import (
	"encoding/json"
	"fmt"

	"repro/internal/jsonscan"
	"repro/pkg/vnn"
)

// FloatMatrix is a [][]float64 with a fast JSON decoder. It is the wire
// type of the inference plane's bulk fields (inputs, monitor datasets,
// outputs); ordinary [][]float64 values assign to and from it directly.
type FloatMatrix [][]float64

// UnmarshalJSON parses [[...],...] without reflection. All rows share
// one backing array.
func (m *FloatMatrix) UnmarshalJSON(b []byte) error {
	i := jsonscan.SkipSpace(b, 0)
	if i < len(b) && b[i] == 'n' { // null: leave the matrix nil
		return nil
	}
	out, _, _, err := jsonscan.Matrix(b, i)
	if err != nil {
		return fmt.Errorf("float matrix: %w", err)
	}
	*m = out
	return nil
}

// decodeInfer decodes a /v1/infer body into req: by inferDecoder when the
// document is in its canonical shape, else by decodeBody on the same
// bytes.
func decodeInfer(body []byte, req *InferRequest) error {
	d := inferDecoder{Walker: jsonscan.Walker{B: body}}
	if d.request(req) {
		return nil
	}
	*req = InferRequest{}
	return decodeBody(body, req)
}

// inferDecoder walks one /v1/infer body in canonical shape. Each method
// reports whether the document is still canonical; after a false the
// request is partly filled and must be decoded again by decodeBody.
type inferDecoder struct{ jsonscan.Walker }

// request decodes the whole body into req.
func (d *inferDecoder) request(req *InferRequest) bool {
	d.I = jsonscan.SkipSpace(d.B, 0)
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "model":
			return d.value(&req.Model)
		case "network":
			return d.network(req)
		case "fingerprint":
			return d.value(&req.Fingerprint)
		case "region":
			return d.fields(&req.Region)
		case "inputs":
			return d.matrix(&req.Inputs)
		case "monitor":
			req.Monitor = new(InferMonitorSpec)
			return d.monitor(req.Monitor)
		case "monitor_fingerprint":
			return d.value(&req.MonitorFingerprint)
		case "options":
			return d.fields(&req.Options)
		case "timeout_ms":
			return d.value(&req.TimeoutMS)
		}
		return false
	}) && d.I == len(d.B)
}

// monitor decodes the "monitor" object into spec.
func (d *inferDecoder) monitor(spec *InferMonitorSpec) bool {
	return d.Object(func(key []byte) bool {
		switch string(key) {
		case "data":
			return d.matrix(&spec.Data)
		case "gamma":
			return d.value(&spec.Gamma)
		case "layers":
			return d.value(&spec.Layers)
		}
		return false
	})
}

// network decodes the network where it lies, by vnn.UnmarshalNetwork on
// the delimited value, and keeps its bytes beside it, as encoding/json
// would have kept them. A value UnmarshalNetwork refuses is kept raw
// alone, so that prepareInfer decodes it again and answers with its error,
// as it does for a body decodeBody decoded.
func (d *inferDecoder) network(req *InferRequest) bool {
	end := jsonscan.SkipValue(d.B, d.I)
	if end < 0 {
		return false
	}
	net, err := vnn.UnmarshalNetwork(d.B[d.I:end])
	if err != nil {
		return d.value(&req.Network)
	}
	req.Network = append(json.RawMessage(nil), d.B[d.I:end]...)
	req.network = net
	d.I = end
	return true
}

// matrix parses a bulk field where it lies. null is not canonical: the
// strict path keeps whatever value a null leaves.
func (d *inferDecoder) matrix(m *FloatMatrix) bool {
	rows, _, ok := d.Matrix()
	*m = rows
	return ok
}

// value decodes the JSON value at I into v, a type without struct
// fields, for which json.Unmarshal is as strict as decodeBody.
func (d *inferDecoder) value(v any) bool { return d.decode(v, json.Unmarshal) }

// fields decodes the JSON value at I into the struct v, unknown fields
// refused.
func (d *inferDecoder) fields(v any) bool { return d.decode(v, decodeBody) }

// decode delimits the JSON value at I, decodes that slice alone into v
// and leaves I just past it. The decoded value owns its memory: nothing
// aliases the body.
func (d *inferDecoder) decode(v any, unmarshal func([]byte, any) error) bool {
	end := jsonscan.SkipValue(d.B, d.I)
	if end < 0 || unmarshal(d.B[d.I:end], v) != nil {
		return false
	}
	d.I = end
	return true
}

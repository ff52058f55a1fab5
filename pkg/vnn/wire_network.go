package vnn

import (
	"repro/internal/jsonscan"
	"repro/internal/nn"
)

// decodeNetwork is UnmarshalNetwork's one pass: it decodes a network
// document in canonical shape and validates it, writing each layer's
// weights straight into the layer's packed serving matrix. Canonical
// means what MarshalNetwork writes, in any key order: each key spelled as
// its struct tag, unescaped and at most once; names unescaped strings;
// "w" a matrix and "b" a vector, both present, and "act" an integer.
// For anything else, and for a network that fails validation, it reports
// false and decodes nothing encoding/json would decode differently: a
// network it returns is the one encoding/json gives, weight for weight
// and bit for bit (FuzzUnmarshalNetwork).
func decodeNetwork(data []byte) (*Network, bool) {
	w := &jsonscan.Walker{B: data, I: jsonscan.SkipSpace(data, 0)}
	var n nn.Network
	ok := w.Object(func(key []byte) bool {
		switch string(key) {
		case "name":
			var ok bool
			n.Name, ok = w.String()
			return ok
		case "input_names":
			return decodeNames(w, &n.InputNames)
		case "output_names":
			return decodeNames(w, &n.OutputNames)
		case "layers":
			return w.Array(func() bool {
				l, ok := decodeLayer(w)
				n.Layers = append(n.Layers, l)
				return ok
			})
		}
		return false
	})
	if !ok || w.I != len(data) || n.Validate() != nil {
		return nil, false
	}
	return &n, true
}

// decodeNames decodes an array of strings into a non-nil slice, as
// encoding/json does.
func decodeNames(w *jsonscan.Walker, names *[]string) bool {
	*names = []string{}
	return w.Array(func() bool {
		s, ok := w.String()
		*names = append(*names, s)
		return ok
	})
}

// decodeLayer decodes one layer object, packed. A ragged matrix is not
// packed: it is left for encoding/json, and for validation to refuse. So
// is a layer without "w", whose W encoding/json leaves nil.
func decodeLayer(w *jsonscan.Walker) (*nn.Layer, bool) {
	var rows [][]float64
	var flat, b []float64
	act, hasW, hasB := 0, false, false
	ok := w.Object(func(key []byte) bool {
		var ok bool
		switch string(key) {
		case "w":
			rows, flat, ok = w.Matrix()
			hasW = ok
		case "b":
			b, ok = w.Vector()
			hasB = ok
		case "act":
			act, ok = w.Int()
		}
		return ok
	})
	if !ok || !hasW || !hasB {
		return nil, false
	}
	cols := 0
	if len(rows) > 0 {
		cols = len(rows[0])
	}
	for _, row := range rows {
		if len(row) != cols {
			return nil, false
		}
	}
	return nn.PackedLayer(flat, len(rows), cols, b, nn.Activation(act)), true
}

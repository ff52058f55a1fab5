package vnnserver_test

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/pkg/vnnserver"
)

// hasNull reports whether a [][]float64 document holds a null row or
// element — the one place FloatMatrix may be stricter than encoding/json.
func hasNull(b []byte) bool {
	var rows []json.RawMessage
	if json.Unmarshal(b, &rows) != nil {
		return false
	}
	for _, row := range rows {
		if bytes.Equal(bytes.TrimSpace(row), []byte("null")) {
			return true
		}
		var elems []json.RawMessage
		if json.Unmarshal(row, &elems) != nil {
			return false
		}
		for _, e := range elems {
			if bytes.Equal(bytes.TrimSpace(e), []byte("null")) {
				return true
			}
		}
	}
	return false
}

// FuzzFloatMatrix holds the hand-rolled decoder to encoding/json on every
// valid document: a successful decode equals json.Unmarshal into
// [][]float64 bit for bit, and the decoder accepts nothing encoding/json
// rejects. It may reject only what encoding/json would silently turn
// into a nil row or a zero.
func FuzzFloatMatrix(f *testing.F) {
	for _, seed := range []string{
		`[[1,2],[3]]`, `[]`, `[[]]`, `null`, `[[null]]`, `[[1e400]]`, `[[-0]]`,
		`[[1E-7,2.5e+3]]`, `[["a"]]`, `[[1,[2]]]`, `{"a":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if !json.Valid(b) {
			return
		}
		var got vnnserver.FloatMatrix
		gotErr := got.UnmarshalJSON(b)
		var want [][]float64
		wantErr := json.Unmarshal(b, &want)
		switch {
		case gotErr != nil && wantErr == nil:
			if !hasNull(b) {
				t.Fatalf("FloatMatrix rejects %q (%v), encoding/json accepts it", b, gotErr)
			}
			return
		case gotErr != nil:
			return
		case wantErr != nil:
			t.Fatalf("FloatMatrix accepts %q, encoding/json rejects it (%v)", b, wantErr)
		}
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%q: FloatMatrix %v, encoding/json %v", b, got, want)
		}
		for i := range want {
			if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
				t.Fatalf("%q: row %d: FloatMatrix %v, encoding/json %v", b, i, got[i], want[i])
			}
			for j := range want[i] {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("%q: [%d][%d]: FloatMatrix %v, encoding/json %v", b, i, j, got[i][j], want[i][j])
				}
			}
		}
	})
}

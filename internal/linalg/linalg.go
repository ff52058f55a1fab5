// Package linalg provides small dense linear-algebra kernels shared by the
// LP solver, the neural-network runtime and the training code.
//
// All kernels operate on plain float64 slices so callers control allocation.
// Matrices are stored row-major as [][]float64; rows may alias a single
// backing array (see NewMatrix).
package linalg

import (
	"fmt"
	"math"
)

// Dot returns the inner product of a and b.
// It panics if the lengths differ.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place; alpha == 0 leaves y untouched. Every
// element is one correctly rounded multiply followed by one correctly
// rounded add — never fused — on every path (see axpyGo), so the result does
// not depend on the architecture or on which kernel ran. x and y may be the
// same slice but must not overlap partially.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("linalg: Axpy length mismatch %d != %d", len(x), len(y)))
	}
	if alpha == 0 || len(x) == 0 {
		return
	}
	if useAsmKernels {
		axpyAVX(alpha, &x[0], &y[0], len(x))
		return
	}
	axpyGo(alpha, x, y)
}

// Scale multiplies every element of x by alpha in place: one correctly
// rounded multiply per element on every path.
func Scale(alpha float64, x []float64) {
	if len(x) == 0 {
		return
	}
	if useAsmKernels {
		scaleAVX(alpha, &x[0], len(x))
		return
	}
	scaleGo(alpha, x)
}

// Clone returns a newly allocated copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// NewMatrix allocates an r-by-c matrix whose rows share one backing array,
// giving cache-friendly layout and a single allocation.
func NewMatrix(r, c int) [][]float64 {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: NewMatrix negative dims %dx%d", r, c))
	}
	backing := make([]float64, r*c)
	m := make([][]float64, r)
	for i := range m {
		m[i], backing = backing[:c:c], backing[c:]
	}
	return m
}

// CloneMatrix returns a deep copy of m.
func CloneMatrix(m [][]float64) [][]float64 {
	if len(m) == 0 {
		return nil
	}
	out := NewMatrix(len(m), len(m[0]))
	for i := range m {
		copy(out[i], m[i])
	}
	return out
}

// MatVec computes y = A*x. It panics on dimension mismatch.
func MatVec(a [][]float64, x []float64, y []float64) {
	if len(a) != len(y) {
		panic(fmt.Sprintf("linalg: MatVec rows %d != len(y) %d", len(a), len(y)))
	}
	for i, row := range a {
		y[i] = Dot(row, x)
	}
}

// MatTVec computes y = Aᵀ*x. It panics on dimension mismatch.
func MatTVec(a [][]float64, x []float64, y []float64) {
	if len(a) != len(x) {
		panic(fmt.Sprintf("linalg: MatTVec rows %d != len(x) %d", len(a), len(x)))
	}
	Zero(y)
	for i, row := range a {
		Axpy(x[i], row, y)
	}
}

// AddOuter computes A += alpha * x*yᵀ in place.
func AddOuter(a [][]float64, alpha float64, x, y []float64) {
	if len(a) != len(x) {
		panic(fmt.Sprintf("linalg: AddOuter rows %d != len(x) %d", len(a), len(x)))
	}
	for i, row := range a {
		Axpy(alpha*x[i], y, row)
	}
}

// AllFinite reports whether every element of x is finite (not NaN or ±Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

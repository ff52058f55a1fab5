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

// Copy copies src into dst and panics on length mismatch.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: Copy length mismatch %d != %d", len(dst), len(src)))
	}
	copy(dst, src)
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

// NormInf returns max_i |x_i|, or 0 for an empty slice.
func NormInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// Norm1 returns the sum of absolute values of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// ArgMax returns the index of the largest element of x, or -1 when empty.
// Ties resolve to the lowest index.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// ArgMin returns the index of the smallest element of x, or -1 when empty.
func ArgMin(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] < x[best] {
			best = i
		}
	}
	return best
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	return Sum(x) / float64(len(x))
}

// Clamp returns v limited to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
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

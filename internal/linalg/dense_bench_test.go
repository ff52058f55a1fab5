package linalg

import (
	"math/rand"
	"testing"
)

// benchDims is the kernel benchmark ladder: serving layers live mostly in
// the 16–128 range, 512 shows the streaming regime.
var benchDims = []struct {
	name        string
	rows, cols  int
	batchedRows int
}{
	{"16x16", 16, 16, 64},
	{"40x40", 40, 40, 64},
	{"64x64", 64, 64, 64},
	{"128x128", 128, 128, 64},
	{"512x512", 512, 512, 64},
}

func randDense(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

// BenchmarkMatVec is the blocked serving kernel.
func BenchmarkMatVec(b *testing.B) {
	for _, bd := range benchDims {
		b.Run(bd.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := randDense(rng, bd.rows, bd.cols)
			x := randVec(rng, bd.cols)
			y := make([]float64, bd.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.MatVec(y, x)
			}
		})
	}
}

// BenchmarkMatVecDot is the pre-kernel baseline: the naive row-major Dot
// loop the serving path used before the flat kernels.
func BenchmarkMatVecDot(b *testing.B) {
	for _, bd := range benchDims {
		b.Run(bd.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			rows := randDense(rng, bd.rows, bd.cols).ToRows()
			x := randVec(rng, bd.cols)
			y := make([]float64, bd.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec(rows, x, y)
			}
		})
	}
}

// BenchmarkMatMulTB is the batched serving kernel (batch of 64 inputs).
func BenchmarkMatMulTB(b *testing.B) {
	for _, bd := range benchDims {
		b.Run(bd.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a := randDense(rng, bd.batchedRows, bd.cols)
			w := randDense(rng, bd.rows, bd.cols)
			c := NewDense(bd.batchedRows, bd.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMulTB(c, a, w)
			}
		})
	}
}

// updateLen is the row length BenchmarkAxpy and BenchmarkScale run at: the
// priced width of the I2x8 verification tableau, where the simplex pivot
// spends its time.
const updateLen = 184

// BenchmarkAxpy is one row elimination of a simplex pivot.
func BenchmarkAxpy(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := randVec(rng, updateLen), randVec(rng, updateLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Alternating signs keep y bounded over any b.N.
		Axpy(float64(1-2*(i&1)), x, y)
	}
}

// BenchmarkScale is the pivot-row normalisation of a simplex pivot.
func BenchmarkScale(b *testing.B) {
	x := randVec(rand.New(rand.NewSource(1)), updateLen)
	alphas := [2]float64{1.25, 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Scale(alphas[i&1], x)
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

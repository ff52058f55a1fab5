package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// refAxpy and refScale are the loops Axpy and Scale were before they had
// kernels; every path must reproduce their bits.
func refAxpy(alpha float64, x, y []float64) {
	if alpha == 0 {
		return
	}
	for i := range x {
		y[i] += float64(alpha * x[i])
	}
}

func refScale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// sameFloats reports the first index where a and b differ in bits; NaNs
// match each other whatever their payload (which operand's payload an
// add propagates is not part of the contract).
func sameFloats(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i
		}
	}
	return -1
}

// updateDims extends the kernel ladder with the two tableau widths the
// verification LPs run at (I2x8: 184 columns priced, 242 with artificials).
var updateDims = append(append([]int(nil), kernelDims...), 15, 16, 17, 184, 242)

var updateAlphas = []float64{0, math.Copysign(0, -1), 1, -1, 5e-324, -2.5e-310, 0.3, -1.7e3}

// TestAxpyScaleMatchReference pins both kernels to the reference loops,
// bit for bit, over every length residue, unaligned sub-slices and the
// special alphas.
func TestAxpyScaleMatchReference(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, n := range updateDims {
			for _, off := range []int{0, 1, 3} {
				for ai, alpha := range updateAlphas {
					x := seededVec(int64(n*31+ai), n+off)[off:]
					y := seededVec(int64(n*37+ai+1), n+off+2)[off+2:]
					want := append([]float64(nil), y...)
					refAxpy(alpha, x, want)
					Axpy(alpha, x, y)
					if i := sameFloats(y, want); i >= 0 {
						t.Fatalf("Axpy n=%d off=%d alpha=%g: [%d] = %x, want %x", n, off, alpha, i, y[i], want[i])
					}
					want = append([]float64(nil), x...)
					refScale(alpha, want)
					Scale(alpha, x)
					if i := sameFloats(x, want); i >= 0 {
						t.Fatalf("Scale n=%d off=%d alpha=%g: [%d] = %x, want %x", n, off, alpha, i, x[i], want[i])
					}
				}
			}
		}
	})
}

// TestAxpyScaleNonFinite: NaN and ±Inf in either operand come out where the
// reference loop puts them (Inf−Inf and 0·Inf become NaN, the rest pass
// through), in the vector body and in the scalar tail alike.
func TestAxpyScaleNonFinite(t *testing.T) {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324}
	forEachKernelPath(t, func(t *testing.T) {
		for _, n := range []int{7, 23, 184} {
			for _, alpha := range []float64{2, -1, math.Inf(1), math.NaN(), 0} {
				x := seededVec(3, n)
				y := seededVec(4, n)
				for i := range x {
					x[i] = specials[i%len(specials)]
					if i%4 == 1 {
						y[i] = specials[(i/4)%len(specials)]
					}
				}
				want := append([]float64(nil), y...)
				refAxpy(alpha, x, want)
				Axpy(alpha, x, y)
				if i := sameFloats(y, want); i >= 0 {
					t.Fatalf("Axpy n=%d alpha=%g: [%d] = %g, want %g", n, alpha, i, y[i], want[i])
				}
				want = append([]float64(nil), x...)
				refScale(alpha, want)
				Scale(alpha, x)
				if i := sameFloats(x, want); i >= 0 {
					t.Fatalf("Scale n=%d alpha=%g: [%d] = %g, want %g", n, alpha, i, x[i], want[i])
				}
			}
		}
	})
}

// TestAxpyScaleHandComputed: small exact cases with the answers written out.
func TestAxpyScaleHandComputed(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		// y = [1,2,3,4,5] + 0.5·[2,4,6,8,10] = [2,4,6,8,10].
		y := []float64{1, 2, 3, 4, 5}
		Axpy(0.5, []float64{2, 4, 6, 8, 10}, y)
		for i, want := range []float64{2, 4, 6, 8, 10} {
			if math.Abs(y[i]-want) > 1e-12 {
				t.Fatalf("Axpy = %v", y)
			}
		}
		// The pivot's row elimination: [3,-1,0.5] − 1.5·[2,0,1] = [0,-1,-1].
		row := []float64{3, -1, 0.5}
		Axpy(-1.5, []float64{2, 0, 1}, row)
		for i, want := range []float64{0, -1, -1} {
			if math.Abs(row[i]-want) > 1e-12 {
				t.Fatalf("elimination = %v", row)
			}
		}
		// In place on one vector: y += 2·y = 3·y.
		z := []float64{1, -2, 0.25, 8, 16}
		Axpy(2, z, z)
		for i, want := range []float64{3, -6, 0.75, 24, 48} {
			if math.Abs(z[i]-want) > 1e-12 {
				t.Fatalf("aliased Axpy = %v", z)
			}
		}
		// The pivot's row scale: [4,-2,1,0,6]/4.
		s := []float64{4, -2, 1, 0, 6}
		Scale(0.25, s)
		for i, want := range []float64{1, -0.5, 0.25, 0, 1.5} {
			if math.Abs(s[i]-want) > 1e-12 {
				t.Fatalf("Scale = %v", s)
			}
		}
	})
}

// TestAxpyIsNotFused: 1 + ε·ε−ish products separate a fused multiply-add
// from multiply-then-add. With x = 1+2⁻³⁰, alpha = x and y = −1 the
// rounded product is 1+2⁻²⁹ (the 2⁻⁶⁰ term is lost), so y becomes exactly
// 2⁻²⁹; an FMA would keep the lost term and return 2⁻²⁹+2⁻⁶⁰.
func TestAxpyIsNotFused(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		a := 1 + math.Ldexp(1, -30)
		for _, n := range []int{1, 4, 19} {
			x, y := make([]float64, n), make([]float64, n)
			for i := range x {
				x[i], y[i] = a, -1
			}
			Axpy(a, x, y)
			for i, v := range y {
				if v != math.Ldexp(1, -29) {
					t.Fatalf("n=%d: y[%d] = %x, want 2^-29 exactly (fused result is %x)", n, i, v, math.FMA(a, a, -1))
				}
			}
		}
	})
}

// TestAxpyAsmMatchesGo and TestScaleAsmMatchesGo pin the cross-path
// contract directly, kernel against kernel, on random lengths and offsets.
func TestAxpyAsmMatchesGo(t *testing.T) {
	if !useAsmKernels {
		t.Skip("assembly kernel not available on this CPU")
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 500; trial++ {
		n, off := 1+rng.Intn(300), rng.Intn(4)
		alpha := rng.NormFloat64()
		x := seededVec(int64(trial), n+off)[off:]
		yGo := seededVec(int64(trial+5000), n+off)[off:]
		yAsm := append([]float64(nil), yGo...)
		axpyGo(alpha, x, yGo)
		axpyAVX(alpha, &x[0], &yAsm[0], n)
		if i := sameFloats(yAsm, yGo); i >= 0 {
			t.Fatalf("trial %d n=%d: [%d] go %x asm %x", trial, n, i, yGo[i], yAsm[i])
		}
	}
}

func TestScaleAsmMatchesGo(t *testing.T) {
	if !useAsmKernels {
		t.Skip("assembly kernel not available on this CPU")
	}
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 500; trial++ {
		n, off := 1+rng.Intn(300), rng.Intn(4)
		alpha := rng.NormFloat64()
		xGo := seededVec(int64(trial), n+off)[off:]
		xAsm := append([]float64(nil), xGo...)
		scaleGo(alpha, xGo)
		scaleAVX(alpha, &xAsm[0], n)
		if i := sameFloats(xAsm, xGo); i >= 0 {
			t.Fatalf("trial %d n=%d: [%d] go %x asm %x", trial, n, i, xGo[i], xAsm[i])
		}
	}
}

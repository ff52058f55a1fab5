package linalg

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %g", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
	Axpy(0, []float64{100, 100}, y) // no-op
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy alpha=0 mutated: %v", y)
	}
}

func TestMatVecAndTranspose(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	y := make([]float64, 3)
	MatVec(a, []float64{1, 1}, y)
	want := []float64{3, 7, 11}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MatVec = %v, want %v", y, want)
		}
	}
	z := make([]float64, 2)
	MatTVec(a, []float64{1, 1, 1}, z)
	if z[0] != 9 || z[1] != 12 {
		t.Fatalf("MatTVec = %v, want [9 12]", z)
	}
}

func TestNewMatrixLayout(t *testing.T) {
	m := NewMatrix(3, 4)
	if len(m) != 3 || len(m[0]) != 4 {
		t.Fatalf("shape %dx%d", len(m), len(m[0]))
	}
	m[1][2] = 5
	if m[0][2] != 0 || m[2][2] != 0 {
		t.Fatal("rows alias each other")
	}
	if cap(m[0]) != 4 {
		t.Fatalf("row capacity %d should be clipped to 4", cap(m[0]))
	}
}

func TestCloneMatrixDeep(t *testing.T) {
	a := [][]float64{{1, 2}, {3, 4}}
	b := CloneMatrix(a)
	b[0][0] = 99
	if a[0][0] != 1 {
		t.Fatal("CloneMatrix shares storage")
	}
	if CloneMatrix(nil) != nil {
		t.Fatal("CloneMatrix(nil) should be nil")
	}
}

func TestAddOuter(t *testing.T) {
	a := NewMatrix(2, 2)
	AddOuter(a, 2, []float64{1, 2}, []float64{3, 4})
	want := [][]float64{{6, 8}, {12, 16}}
	for i := range want {
		for j := range want[i] {
			if a[i][j] != want[i][j] {
				t.Fatalf("AddOuter = %v, want %v", a, want)
			}
		}
	}
}

func TestAllFinite(t *testing.T) {
	if !AllFinite([]float64{1, 2}) {
		t.Fatal("finite slice reported non-finite")
	}
	if AllFinite([]float64{1, math.NaN()}) || AllFinite([]float64{math.Inf(1)}) {
		t.Fatal("non-finite slipped through")
	}
}

func TestQuickDotSymmetry(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			// Keep products finite so the property is about ordering,
			// not about IEEE overflow (Inf-Inf = NaN is order dependent).
			if math.Abs(a[i]) > 1e100 || math.Abs(b[i]) > 1e100 {
				return true
			}
		}
		return Dot(a[:], b[:]) == Dot(b[:], a[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAxpyLinearity(t *testing.T) {
	// Axpy(alpha, x, y) then Axpy(-alpha, x, y) restores y (within fp error).
	f := func(x, y [6]float64, alpha float64) bool {
		if math.IsNaN(alpha) || math.IsInf(alpha, 0) {
			return true
		}
		if !AllFinite(x[:]) || !AllFinite(y[:]) {
			return true
		}
		orig := Clone(y[:])
		w := Clone(y[:])
		Axpy(alpha, x[:], w)
		Axpy(-alpha, x[:], w)
		for i := range w {
			diff := math.Abs(w[i] - orig[i])
			scale := math.Max(1, math.Abs(alpha)*math.Abs(x[i]))
			if diff > 1e-9*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

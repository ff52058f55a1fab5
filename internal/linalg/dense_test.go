package linalg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// kernelDims is the shape/tail ladder from the issue: below one block,
// exactly one block, every tail residue, and a multi-block odd size.
var kernelDims = []int{0, 1, 3, 4, 5, 7, 8, 33}

// forEachKernelPath runs f once per available kernel implementation
// (pure Go always; assembly when the CPU supports it), so every test in
// this file pins both paths.
func forEachKernelPath(t *testing.T, f func(t *testing.T)) {
	saved := useAsmKernels
	defer func() { useAsmKernels = saved }()
	useAsmKernels = false
	t.Run("go", f)
	if saved {
		useAsmKernels = true
		t.Run("asm", f)
	}
}

func seededDense(seed int64, r, c int) *Dense {
	rng := rand.New(rand.NewSource(seed))
	d := NewDense(r, c)
	for i := range d.Data {
		d.Data[i] = rng.NormFloat64()
	}
	return d
}

func seededVec(seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestDenseConstructorsRoundTrip(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	d := DenseFromRows(rows)
	if d.Rows != 2 || d.Cols != 3 {
		t.Fatalf("dims %dx%d", d.Rows, d.Cols)
	}
	if d.At(1, 2) != 6 {
		t.Fatalf("At(1,2) = %v", d.At(1, 2))
	}
	back := d.ToRows()
	for i := range rows {
		for j := range rows[i] {
			if back[i][j] != rows[i][j] {
				t.Fatalf("round trip (%d,%d)", i, j)
			}
		}
	}
	// ToRows aliases; DenseFromRows copied.
	back[0][0] = 99
	if d.At(0, 0) != 99 {
		t.Fatal("ToRows should alias the backing array")
	}
	if rows[0][0] != 1 {
		t.Fatal("DenseFromRows should copy its input")
	}
	// Row views are capacity-capped: appending must not clobber row 1.
	r0 := d.Row(0)
	_ = append(r0, 7)
	if d.At(1, 0) != 4 {
		t.Fatal("Row view grew into the next row")
	}
}

func TestDenseConstructorPanics(t *testing.T) {
	mustPanic(t, "ragged rows", func() { DenseFromRows([][]float64{{1, 2}, {1}}) })
	mustPanic(t, "negative dims", func() { NewDense(-1, 2) })
	mustPanic(t, "row out of range", func() { NewDense(2, 2).Row(2) })
	mustPanic(t, "At out of range", func() { NewDense(2, 2).At(0, 2) })
}

// TestDot4Golden pins the serving accumulation order with hand-computed
// values. The inputs are small integers, so every FMA and add is exact
// and the expected values hold on any IEEE-754 platform.
func TestDot4Golden(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6, 7}
	b := []float64{2, 4, 8, 16, 32, 64, 128}
	// chains: s0 = 1*2 + 5*32 = 162, s1 = 2*4 + 6*64 = 392,
	// s2 = 3*8 = 24, s3 = 4*16 = 64 — wait: n=7, one block of 4, tail 3.
	// block: s0=1*2=2, s1=2*4=8, s2=3*8=24, s3=4*16=64 → (2+8)+(24+64)=98
	// tail (index order): 98 + 5*32 = 258, + 6*64 = 642, + 7*128 = 1538.
	if got := dot4(a, b); got != 1538 {
		t.Fatalf("dot4 = %v, want 1538", got)
	}
	ya, yb := dot4Pair(a, a, b)
	if ya != 1538 || yb != 1538 {
		t.Fatalf("dot4Pair = %v, %v, want 1538", ya, yb)
	}
}

// TestMatVecGolden pins seeded kernel outputs bit-for-bit. The values
// were produced by dot4 itself, so this is a change-detector for the
// accumulation order: any reordering of the chains or the tail flips
// low-order bits and fails the exact comparison.
func TestMatVecGolden(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		d := seededDense(11, 5, 7)
		x := seededVec(13, 7)
		y := make([]float64, 5)
		d.MatVec(y, x)
		want := make([]float64, 5)
		for i := 0; i < 5; i++ {
			want[i] = dot4(d.Row(i), x)
		}
		for i := range y {
			if y[i] != want[i] {
				t.Fatalf("row %d: got %x want %x", i, y[i], want[i])
			}
		}
	})
}

// TestMatVecShapes covers the full dim ladder on both paths, comparing
// bit-exactly against the dot4 reference row by row.
func TestMatVecShapes(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, r := range kernelDims {
			for _, c := range kernelDims {
				d := seededDense(int64(100*r+c), r, c)
				x := seededVec(int64(r+c), c)
				y := make([]float64, r)
				d.MatVec(y, x)
				for i := 0; i < r; i++ {
					if want := dot4(d.Row(i), x); y[i] != want {
						t.Fatalf("%dx%d row %d: got %x want %x", r, c, i, y[i], want)
					}
				}
			}
		}
	})
}

// TestMatMulTBMatchesMatVec pins the batch==single contract: every row
// of the batched product is bit-identical to the one-vector product.
func TestMatMulTBMatchesMatVec(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, batch := range kernelDims {
			for _, out := range []int{0, 1, 3, 5, 8} {
				for _, k := range []int{0, 3, 7, 33} {
					a := seededDense(int64(batch*100+k), batch, k)
					b := seededDense(int64(out*100+k+1), out, k)
					c := NewDense(batch, out)
					MatMulTB(c, a, b)
					y := make([]float64, out)
					for i := 0; i < batch; i++ {
						b.MatVec(y, a.Row(i))
						for j := 0; j < out; j++ {
							if c.At(i, j) != y[j] {
								t.Fatalf("batch=%d out=%d k=%d cell (%d,%d): %x != %x",
									batch, out, k, i, j, c.At(i, j), y[j])
							}
						}
					}
				}
			}
		}
	})
}

// TestMatVecAsmMatchesGo pins the cross-path contract directly: on
// hardware with the assembly kernel, both paths produce identical bits.
func TestMatVecAsmMatchesGo(t *testing.T) {
	if !useAsmKernels {
		t.Skip("assembly kernel not available on this CPU")
	}
	saved := useAsmKernels
	defer func() { useAsmKernels = saved }()
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		r := rng.Intn(40)
		c := rng.Intn(70)
		d := seededDense(int64(trial), r, c)
		x := seededVec(int64(trial+1000), c)
		yGo := make([]float64, r)
		yAsm := make([]float64, r)
		useAsmKernels = false
		d.MatVec(yGo, x)
		useAsmKernels = true
		d.MatVec(yAsm, x)
		for i := range yGo {
			if yGo[i] != yAsm[i] {
				t.Fatalf("trial %d (%dx%d) row %d: go %x asm %x", trial, r, c, i, yGo[i], yAsm[i])
			}
		}
	}
}

// TestMatVecDeterministic runs the same product 100 times and demands
// identical bits every run — the run-to-run half of the determinism
// contract (the batching/GOMAXPROCS half is TestMatMulTBMatchesMatVec
// plus the server-side sharding tests).
func TestMatVecDeterministic(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		d := seededDense(29, 33, 33)
		x := seededVec(31, 33)
		first := make([]float64, 33)
		d.MatVec(first, x)
		y := make([]float64, 33)
		for run := 1; run < 100; run++ {
			d.MatVec(y, x)
			for i := range y {
				if y[i] != first[i] {
					t.Fatalf("run %d row %d: %x != %x", run, i, y[i], first[i])
				}
			}
		}
	})
}

// TestMatVecMatchesDotWithinTolerance cross-checks the serving order
// against the naive sequential Dot the verify paths keep. The two
// orders differ only in rounding: each of the ~n accumulated terms can
// contribute at most one ULP of the running magnitude, so the documented
// bound is n ULPs of the magnitude sum — loose, simple, and tight enough
// to catch any indexing bug (which shows up as O(1) relative error).
func TestMatVecMatchesDotWithinTolerance(t *testing.T) {
	forEachKernelPath(t, func(t *testing.T) {
		for _, c := range []int{1, 7, 33, 128} {
			d := seededDense(int64(c), 9, c)
			x := seededVec(int64(c+1), c)
			y := make([]float64, 9)
			d.MatVec(y, x)
			for i := 0; i < 9; i++ {
				row := d.Row(i)
				want := Dot(row, x)
				var mag float64
				for j, v := range row {
					mag += math.Abs(v * x[j])
				}
				tol := float64(c) * math.Abs(mag) * 0x1p-52
				if diff := math.Abs(y[i] - want); diff > tol {
					t.Fatalf("cols=%d row %d: |%v - %v| = %v > %v", c, i, y[i], want, diff, tol)
				}
			}
		}
	})
}

func TestMatVecAliasPanics(t *testing.T) {
	d := seededDense(3, 4, 4)
	x := seededVec(5, 4)
	mustPanic(t, "y aliases x", func() { d.MatVec(x, x) })
	mustPanic(t, "y aliases matrix", func() { d.MatVec(d.Data[:4], x) })
	mustPanic(t, "short x", func() { d.MatVec(make([]float64, 4), x[:3]) })
	mustPanic(t, "short y", func() { d.MatVec(make([]float64, 3), x) })

	a := seededDense(7, 2, 4)
	c := NewDense(2, 4)
	mustPanic(t, "C aliases A", func() { MatMulTB(a, a, d) })
	mustPanic(t, "inner dim", func() { MatMulTB(c, a, NewDense(4, 3)) })
	mustPanic(t, "C shape", func() { MatMulTB(NewDense(2, 3), a, d) })
	mustPanic(t, "bias size", func() { d.AddBias(x[:3]) })
}

func TestAddBias(t *testing.T) {
	d := DenseFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	d.AddBias([]float64{10, 20})
	want := [][]float64{{11, 22}, {13, 24}, {15, 26}}
	for i := range want {
		for j := range want[i] {
			if d.At(i, j) != want[i][j] {
				t.Fatalf("(%d,%d) = %v, want %v", i, j, d.At(i, j), want[i][j])
			}
		}
	}
}

// kernelFuncs are the hot-loop kernels whose bodies must carry no
// per-element bounds checks. The checked accessors (At) and the asm
// dispatchers (which take one &slice[i] address per call or per row)
// deliberately keep their argument checks.
var kernelFuncs = []string{"dot4", "dot4Pair", "matVecGo", "matMulTBGo", "AddBias", "axpyGo", "scaleGo"}

// TestKernelsElementBCEFree proves the advertised bounds-check freedom:
// compiling this package with -d=ssa/check_bce must report no IsInBounds
// (per-element checks) inside the kernel loop functions. IsSliceInBounds
// hits are allowed — those are the explicit slicing expressions that
// shape the blocks, executed once per block, not per element.
func TestKernelsElementBCEFree(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	out, err := exec.Command("go", "build", "-o", "/dev/null", "-gcflags=-d=ssa/check_bce", ".").CombinedOutput()
	if err != nil && len(out) == 0 {
		t.Skipf("go build unavailable: %v", err)
	}

	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dense.go", nil, 0)
	if err != nil {
		t.Fatalf("parse dense.go: %v", err)
	}
	type span struct{ from, to int }
	spans := map[string]span{}
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		for _, name := range kernelFuncs {
			if fn.Name.Name == name {
				spans[name] = span{fset.Position(fn.Pos()).Line, fset.Position(fn.End()).Line}
			}
		}
	}
	if len(spans) != len(kernelFuncs) {
		t.Fatalf("found %d of %d kernel functions in dense.go", len(spans), len(kernelFuncs))
	}

	for _, line := range strings.Split(string(out), "\n") {
		if !strings.Contains(line, "dense.go") || !strings.Contains(line, "Found IsInBounds") {
			continue
		}
		parts := strings.Split(line, ":")
		if len(parts) < 2 {
			continue
		}
		n, err := strconv.Atoi(parts[1])
		if err != nil {
			continue
		}
		for name, s := range spans {
			if n >= s.from && n <= s.to {
				t.Errorf("element bounds check survives in %s: %s", name, line)
			}
		}
	}
}

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic", name)
		}
	}()
	f()
}

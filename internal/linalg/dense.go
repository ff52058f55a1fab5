// Flat dense matrices and the blocked serving kernels.
//
// Dense stores a matrix row-major in one contiguous backing array — the
// layout the inference hot path wants: no per-row pointer chase, rows
// prefetch sequentially, and the kernels below keep the Go compiler's
// element bounds checks out of their inner loops (proved with
// `go build -gcflags=-d=ssa/check_bce`, see TestKernelsElementBCEFree;
// the explicit slicing expressions that remain are the argument-shape
// checks, not per-element checks).
//
// Determinism contract. Every kernel in this file — pure Go and the
// amd64 AVX2 assembly alike — accumulates every output cell in one fixed
// order per shape:
//
//   - A dot product of length n runs four independent FMA chains, chain
//     c accumulating elements c, c+4, c+8, …; the chains are combined as
//     (s0+s1)+(s2+s3); the n%4 tail elements then fold into that sum in
//     index order, again through FMA.
//   - MatVec and MatMulTB both compute every output cell with exactly
//     that order, so the batched product is bit-identical to the
//     one-vector product, regardless of row blocking, batch size or
//     GOMAXPROCS, run after run.
//   - math.FMA is correctly rounded by spec, and each lane of a hardware
//     VFMADD is the same correctly rounded operation, so dot4 (pure Go)
//     and the AVX2 kernel produce identical bits; TestMatVecAsmMatchesGo
//     pins this on machines that take the assembly path.
//   - The element-wise updates Axpy and Scale (linalg.go) are the opposite
//     choice: multiply, round, add, round — never fused — because the
//     training path and the simplex tableau were built on exactly that
//     arithmetic and every pinned value depends on it. axpyGo and scaleGo
//     below are their reference; the AVX bodies use VMULPD and VADDPD.
//
// This order intentionally differs from the naive sequential Dot: the
// serving forward pass changed accumulation order once, for good (see
// DESIGN.md "Kernel layer"); the verification, training and attack paths
// keep using Dot and are numerically untouched. For any input the two
// orders agree to within a few ULP per accumulated term (pinned by
// TestMatVecMatchesDotWithinTolerance).
package linalg

import (
	"fmt"
	"math"
	"unsafe"
)

// Dense is an r×c matrix stored row-major in one contiguous backing
// array: element (i, j) lives at Data[i*Cols+j]. The zero value is an
// empty matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a zeroed r×c Dense. Negative dimensions panic.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("linalg: NewDense negative dims %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// DenseFromRows copies rows into a freshly allocated Dense. Every row
// must have the same length; ragged input panics with the offending row.
func DenseFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return &Dense{}
	}
	c := len(rows[0])
	d := NewDense(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("linalg: DenseFromRows row %d has %d columns, row 0 has %d", i, len(row), c))
		}
		copy(d.Data[i*c:(i+1)*c], row)
	}
	return d
}

// Row returns row i as a capacity-capped view into the backing array:
// writing through the view writes the matrix, and the view cannot be
// grown into the next row.
func (d *Dense) Row(i int) []float64 {
	if i < 0 || i >= d.Rows {
		panic(fmt.Sprintf("linalg: Dense.Row %d of %d", i, d.Rows))
	}
	return d.Data[i*d.Cols : (i+1)*d.Cols : (i+1)*d.Cols]
}

// ToRows materializes the matrix as a [][]float64 whose rows alias the
// backing array (the inverse of DenseFromRows up to aliasing): writes
// through the returned rows write the Dense.
func (d *Dense) ToRows() [][]float64 {
	rows := make([][]float64, d.Rows)
	for i := range rows {
		rows[i] = d.Row(i)
	}
	return rows
}

// At returns element (i, j).
func (d *Dense) At(i, j int) float64 {
	if i < 0 || i >= d.Rows || j < 0 || j >= d.Cols {
		panic(fmt.Sprintf("linalg: Dense.At (%d,%d) of %dx%d", i, j, d.Rows, d.Cols))
	}
	return d.Data[i*d.Cols+j]
}

// Clone returns a deep copy.
func (d *Dense) Clone() *Dense {
	return &Dense{Rows: d.Rows, Cols: d.Cols, Data: Clone(d.Data)}
}

// sliceOverlap reports whether the backing stores of a and b overlap.
// The address comparison is the standard trick for overlap detection;
// two disjoint allocations never compare as overlapping.
func sliceOverlap(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	ea := pa + uintptr(len(a))*unsafe.Sizeof(float64(0))
	eb := pb + uintptr(len(b))*unsafe.Sizeof(float64(0))
	return pa < eb && pb < ea
}

// dot4 is the portable reference for the serving dot product: four
// independent math.FMA chains over the strided quarters of [0,n),
// combined (s0+s1)+(s2+s3), tail folded in index order. The AVX2 kernel
// computes exactly this (one FMA chain per vector lane), so dot4 defines
// the bits on every architecture. Callers guarantee len(a) >= len(b).
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	n := len(b)
	a = a[:n]
	j := 0
	// The constant-length subslices are what lets the compiler drop the
	// per-element bounds checks (go1.24's prover does not carry
	// len(a)==len(b) through a two-slice strided loop on its own).
	for ; j <= n-4; j += 4 {
		aa := a[j : j+4 : j+4]
		bb := b[j : j+4 : j+4]
		s0 = math.FMA(aa[0], bb[0], s0)
		s1 = math.FMA(aa[1], bb[1], s1)
		s2 = math.FMA(aa[2], bb[2], s2)
		s3 = math.FMA(aa[3], bb[3], s3)
	}
	s := (s0 + s1) + (s2 + s3)
	ta := a[j:]
	for i, bv := range b[j:] {
		s = math.FMA(ta[i], bv, s)
	}
	return s
}

// dot4Pair computes dot4(r0, x) and dot4(r1, x) together, sharing the x
// loads and keeping eight independent FMA chains in flight. Each result
// is bit-identical to the corresponding single dot4 call.
func dot4Pair(r0, r1, x []float64) (float64, float64) {
	var a0, a1, a2, a3 float64
	var b0, b1, b2, b3 float64
	n := len(x)
	r0 = r0[:n]
	r1 = r1[:n]
	j := 0
	for ; j <= n-4; j += 4 {
		xx := x[j : j+4 : j+4]
		p0 := r0[j : j+4 : j+4]
		p1 := r1[j : j+4 : j+4]
		x0, x1, x2, x3 := xx[0], xx[1], xx[2], xx[3]
		a0 = math.FMA(p0[0], x0, a0)
		a1 = math.FMA(p0[1], x1, a1)
		a2 = math.FMA(p0[2], x2, a2)
		a3 = math.FMA(p0[3], x3, a3)
		b0 = math.FMA(p1[0], x0, b0)
		b1 = math.FMA(p1[1], x1, b1)
		b2 = math.FMA(p1[2], x2, b2)
		b3 = math.FMA(p1[3], x3, b3)
	}
	ya := (a0 + a1) + (a2 + a3)
	yb := (b0 + b1) + (b2 + b3)
	t0, t1 := r0[j:], r1[j:]
	for i, xv := range x[j:] {
		ya = math.FMA(t0[i], xv, ya)
		yb = math.FMA(t1[i], xv, yb)
	}
	return ya, yb
}

// MatVec computes y = d·x with the blocked serving kernel. On amd64 with
// AVX2+FMA it runs the assembly micro-kernel (four weight rows per block
// sharing each x load, one FMA chain per vector lane); elsewhere it runs
// the pure-Go pair kernel. Both produce every output element in exactly
// the dot4 order, so the result is independent of the path and the row
// blocking. It panics on dimension mismatch and when y aliases x or the
// matrix.
func (d *Dense) MatVec(y, x []float64) {
	if len(x) != d.Cols {
		panic(fmt.Sprintf("linalg: Dense.MatVec len(x) %d != cols %d", len(x), d.Cols))
	}
	if len(y) != d.Rows {
		panic(fmt.Sprintf("linalg: Dense.MatVec len(y) %d != rows %d", len(y), d.Rows))
	}
	if sliceOverlap(y, x) || sliceOverlap(y, d.Data) {
		panic("linalg: Dense.MatVec y aliases an input")
	}
	if d.Rows == 0 {
		return
	}
	if d.Cols == 0 {
		for i := range y {
			y[i] = 0
		}
		return
	}
	if useAsmKernels {
		matvecAVX2(&d.Data[0], &x[0], &y[0], d.Rows, d.Cols)
		return
	}
	matVecGo(d, y, x)
}

// matVecGo is the portable MatVec: rows in pairs through dot4Pair (eight
// FMA chains in flight), odd tail row through dot4. The consume-style
// loop (reslice w and y as rows complete) is what keeps the stores
// bounds-check-free.
func matVecGo(d *Dense, y, x []float64) {
	n := d.Cols
	w := d.Data
	for len(y) >= 2 {
		r0 := w[:n]
		w = w[n:]
		r1 := w[:n]
		w = w[n:]
		y[0], y[1] = dot4Pair(r0, r1, x)
		y = y[2:]
	}
	if len(y) == 1 {
		y[0] = dot4(w[:n], x)
	}
}

// MatMulTB computes C = A·Bᵀ, the GEMM shape of a batched layer forward:
// A holds one input per row (batch×k), B holds one weight row per output
// neuron (out×k), C receives batch×out. Every C cell is accumulated in
// exactly the dot4 order, making the batched product bit-identical to
// MatVec row by row — on the assembly path each batch row literally runs
// the same micro-kernel as MatVec. It panics on shape mismatch and when
// C aliases A or B.
func MatMulTB(c, a, b *Dense) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulTB inner dims %d != %d", a.Cols, b.Cols))
	}
	if c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulTB C is %dx%d, want %dx%d", c.Rows, c.Cols, a.Rows, b.Rows))
	}
	if sliceOverlap(c.Data, a.Data) || sliceOverlap(c.Data, b.Data) {
		panic("linalg: MatMulTB C aliases an input")
	}
	if a.Rows == 0 || b.Rows == 0 {
		return
	}
	k := a.Cols
	if k == 0 {
		for i := range c.Data {
			c.Data[i] = 0
		}
		return
	}
	if useAsmKernels {
		cw := c.Cols
		for i := 0; i < a.Rows; i++ {
			matvecAVX2(&b.Data[0], &a.Data[i*k], &c.Data[i*cw], b.Rows, k)
		}
		return
	}
	matMulTBGo(c, a, b)
}

// matMulTBGo is the portable batched kernel: it streams one weight row
// of B across a register block of four A rows at a time, so each weight
// element is loaded once per four inputs; tails fall back to scalar rows.
func matMulTBGo(c, a, b *Dense) {
	k := a.Cols
	cw := c.Cols
	i := 0
	for ; i+4 <= a.Rows; i += 4 {
		a0 := a.Data[i*k : i*k+k]
		a1 := a.Data[(i+1)*k : (i+1)*k+k]
		a2 := a.Data[(i+2)*k : (i+2)*k+k]
		a3 := a.Data[(i+3)*k : (i+3)*k+k]
		c0 := c.Data[i*cw : i*cw+cw : i*cw+cw]
		c1 := c.Data[(i+1)*cw : (i+1)*cw+cw : (i+1)*cw+cw][:len(c0)]
		c2 := c.Data[(i+2)*cw : (i+2)*cw+cw : (i+2)*cw+cw][:len(c0)]
		c3 := c.Data[(i+3)*cw : (i+3)*cw+cw : (i+3)*cw+cw][:len(c0)]
		for j := range c0 {
			w := b.Data[j*k : j*k+k]
			c0[j], c1[j] = dot4Pair(a0, a1, w)
			c2[j], c3[j] = dot4Pair(a2, a3, w)
		}
	}
	for ; i < a.Rows; i++ {
		ai := a.Data[i*k : i*k+k]
		ci := c.Data[i*cw : i*cw+cw : i*cw+cw]
		for j := range ci {
			ci[j] = dot4(ai, b.Data[j*k:j*k+k])
		}
	}
}

// axpyGo is the portable reference for Axpy: y[i] += alpha*x[i] with the
// product rounded to float64 before the add. The explicit conversion is
// what forbids fusing: the Go spec lets a compiler fuse x*y+z (arm64,
// ppc64, s390x, and amd64 at GOAMD64=v3 do), and a fused update would
// round once where the AVX kernel (VMULPD then VADDPD) rounds twice.
// Callers guarantee len(y) >= len(x).
func axpyGo(alpha float64, x, y []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// scaleGo is the portable reference for Scale.
func scaleGo(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddBias adds bias b to every row of d in place (the affine step of a
// batched layer forward). It panics when len(b) != Cols.
func (d *Dense) AddBias(b []float64) {
	if len(b) != d.Cols {
		panic(fmt.Sprintf("linalg: Dense.AddBias len(b) %d != cols %d", len(b), d.Cols))
	}
	c := d.Cols
	for i := 0; i < d.Rows; i++ {
		row := d.Data[i*c : (i+1)*c : (i+1)*c][:len(b)]
		for j, v := range b {
			row[j] += v
		}
	}
}

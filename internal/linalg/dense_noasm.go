//go:build !amd64

package linalg

// Non-amd64 builds always run the pure-Go kernels; dot4's math.FMA
// chains are correctly rounded and axpyGo/scaleGo round every product
// explicitly, so the bits match the amd64 assembly path exactly. A
// variable, not a constant, because the tests assign to it on every
// platform.
var useAsmKernels = false

// The assembly entry points are never called when useAsmKernels is
// false; the stubs keep the dispatch building on every platform.
func matvecAVX2(w, x, y *float64, rows, cols int) {
	panic("linalg: matvecAVX2 without assembly support")
}

func axpyAVX(alpha float64, x, y *float64, n int) {
	panic("linalg: axpyAVX without assembly support")
}

func scaleAVX(alpha float64, x *float64, n int) {
	panic("linalg: scaleAVX without assembly support")
}

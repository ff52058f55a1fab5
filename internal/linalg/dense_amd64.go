package linalg

// The AVX2+FMA micro-kernel in dense_amd64.s. CPU support is detected
// once at init through CPUID/XGETBV (OSXSAVE + AVX + FMA + YMM state +
// AVX2), the same checks GOAMD64=v3 assumes at build time — but done at
// run time so a default (v1) build still takes the fast path on modern
// hardware and falls back to the pure-Go kernels on anything older.
//
// Each vector lane of the kernel is one correctly rounded FMA chain, so
// its output is bit-identical to the pure-Go dot4 reference
// (TestMatVecAsmMatchesGo); picking a path never changes results.

// cpuidex executes CPUID with the given leaf and subleaf.
func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask.
func xgetbv0() (eax, edx uint32)

// matvecAVX2 computes y = W·x for a row-major rows×cols W, every output
// element accumulated in the dot4 order. Callers guarantee rows > 0,
// cols > 0, len(x) == cols, len(y) == rows and no aliasing of y.
//
//go:noescape
func matvecAVX2(w, x, y *float64, rows, cols int)

// axpyAVX computes y[i] += alpha*x[i] for i in [0,n) as VMULPD then
// VADDPD — two roundings per element, exactly axpyGo's — and scaleAVX
// computes x[i] *= alpha. Callers guarantee n > 0 and that x and y are
// either the same vector or disjoint.
//
//go:noescape
func axpyAVX(alpha float64, x, y *float64, n int)

//go:noescape
func scaleAVX(alpha float64, x *float64, n int)

// useAsmKernels gates the assembly path; tests flip it to force the
// pure-Go kernels on the same machine.
var useAsmKernels = haveAVX2FMA()

func haveAVX2FMA() bool {
	maxID, _, _, _ := cpuidex(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuidex(1, 0)
	const need = 1<<27 | 1<<28 | 1<<12 // OSXSAVE | AVX | FMA
	if c&need != need {
		return false
	}
	if lo, _ := xgetbv0(); lo&6 != 6 { // XMM and YMM state OS-enabled
		return false
	}
	_, b, _, _ := cpuidex(7, 0)
	return b&(1<<5) != 0 // AVX2
}

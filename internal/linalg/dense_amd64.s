#include "textflag.h"

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func matvecAVX2(w, x, y *float64, rows, cols int)
//
// y = W·x, W row-major rows×cols. Rows are processed four at a time;
// each row owns one YMM accumulator whose four lanes are the four dot4
// chains (lane l accumulates elements l, l+4, l+8, …), so every FMA is
// the same correctly rounded operation math.FMA performs and the result
// is bit-identical to the pure-Go dot4 reference.
//
// Per block of four rows:
//   vec4:     one VMOVUPD of x[j:j+4] feeds four VFMADD231PD, one per row
//   reduce:   VHADDPD pairs lanes as (s0+s1) and (s2+s3) per row, the
//             VPERM2F128/VADDPD combine finishes (s0+s1)+(s2+s3) for all
//             four rows at once
//   tailj4:   the cols%4 tail folds element-by-element in index order,
//             one broadcast x[j] FMA-ed against the four row scalars
// Leftover rows (rows%4) run the same shape one row at a time.
TEXT ·matvecAVX2(SB), NOSPLIT, $0-40
	MOVQ w+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ rows+24(FP), R8
	MOVQ cols+32(FP), R9
	MOVQ R9, R10
	SHLQ $3, R10               // row stride in bytes
	MOVQ R9, R14
	ANDQ $-4, R14              // nv = cols &^ 3, the vectorized prefix
	XORQ AX, AX                // r, current row

blk4:
	MOVQ R8, R15
	SUBQ AX, R15
	CMPQ R15, $4
	JLT  rowtail               // fewer than 4 rows left

	MOVQ  AX, R11
	IMULQ R9, R11
	LEAQ  (DI)(R11*8), R11     // row r
	LEAQ  (R11)(R10*1), BX     // row r+1
	LEAQ  (BX)(R10*1), R12     // row r+2
	LEAQ  (R12)(R10*1), R13    // row r+3

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	XORQ   CX, CX              // j, current column
	CMPQ   R14, $0
	JEQ    reduce4

vec4:
	VMOVUPD     (SI)(CX*8), Y4
	VFMADD231PD (R11)(CX*8), Y4, Y0
	VFMADD231PD (BX)(CX*8), Y4, Y1
	VFMADD231PD (R12)(CX*8), Y4, Y2
	VFMADD231PD (R13)(CX*8), Y4, Y3
	ADDQ        $4, CX
	CMPQ        CX, R14
	JLT         vec4

reduce4:
	VHADDPD    Y1, Y0, Y5      // [a0+a1, b0+b1, a2+a3, b2+b3]
	VHADDPD    Y3, Y2, Y6      // [c0+c1, d0+d1, c2+c3, d2+d3]
	VPERM2F128 $0x20, Y6, Y5, Y7
	VPERM2F128 $0x31, Y6, Y5, Y8
	VADDPD     Y8, Y7, Y7      // [(s0+s1)+(s2+s3)] for rows r..r+3

	CMPQ CX, R9
	JGE  store4

tailj4:
	VBROADCASTSD (SI)(CX*8), Y4
	VMOVSD       (R11)(CX*8), X5
	VMOVHPD      (BX)(CX*8), X5, X5
	VMOVSD       (R12)(CX*8), X6
	VMOVHPD      (R13)(CX*8), X6, X6
	VINSERTF128  $1, X6, Y5, Y5
	VFMADD231PD  Y4, Y5, Y7
	INCQ         CX
	CMPQ         CX, R9
	JLT          tailj4

store4:
	VMOVUPD Y7, (DX)(AX*8)
	ADDQ    $4, AX
	JMP     blk4

rowtail:
	CMPQ AX, R8
	JGE  done
	MOVQ  AX, R11
	IMULQ R9, R11
	LEAQ  (DI)(R11*8), R11
	VXORPD Y0, Y0, Y0
	XORQ   CX, CX
	CMPQ   R14, $0
	JEQ    reduce1

vec1:
	VMOVUPD     (SI)(CX*8), Y4
	VFMADD231PD (R11)(CX*8), Y4, Y0
	ADDQ        $4, CX
	CMPQ        CX, R14
	JLT         vec1

reduce1:
	VEXTRACTF128 $1, Y0, X1
	VHADDPD      X0, X0, X0    // [s0+s1, s0+s1]
	VHADDPD      X1, X1, X1    // [s2+s3, s2+s3]
	VADDSD       X1, X0, X0    // (s0+s1)+(s2+s3)

	CMPQ CX, R9
	JGE  store1

tailj1:
	VMOVSD      (SI)(CX*8), X4
	VFMADD231SD (R11)(CX*8), X4, X0
	INCQ        CX
	CMPQ        CX, R9
	JLT         tailj1

store1:
	VMOVSD X0, (DX)(AX*8)
	INCQ   AX
	JMP    rowtail

done:
	VZEROUPPER
	RET

// func axpyAVX(alpha float64, x, y *float64, n int)
//
// y[i] += alpha*x[i]. Multiply, then add: VMULPD rounds the product and
// VADDPD rounds the sum, the two roundings of the scalar reference axpyGo
// — deliberately not VFMADD, whose single rounding would change every
// value the training and simplex paths have ever produced. Sixteen
// elements per iteration while they last, then four, then one.
TEXT ·axpyAVX(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	XORQ AX, AX                // i
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   axpy4

axpy16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VADDPD  (DI)(AX*8), Y1, Y1
	VADDPD  32(DI)(AX*8), Y2, Y2
	VADDPD  64(DI)(AX*8), Y3, Y3
	VADDPD  96(DI)(AX*8), Y4, Y4
	VMOVUPD Y1, (DI)(AX*8)
	VMOVUPD Y2, 32(DI)(AX*8)
	VMOVUPD Y3, 64(DI)(AX*8)
	VMOVUPD Y4, 96(DI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     axpy16

axpy4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  axpy1

axpy4loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VADDPD  (DI)(AX*8), Y1, Y1
	VMOVUPD Y1, (DI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     axpy4loop

axpy1:
	CMPQ AX, CX
	JGE  axpydone

axpy1loop:
	VMULSD (SI)(AX*8), X0, X1
	VADDSD (DI)(AX*8), X1, X1
	VMOVSD X1, (DI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    axpy1loop

axpydone:
	VZEROUPPER
	RET

// func scaleAVX(alpha float64, x *float64, n int)
//
// x[i] *= alpha, one VMULPD rounding per element like scaleGo.
TEXT ·scaleAVX(SB), NOSPLIT, $0-24
	VBROADCASTSD alpha+0(FP), Y0
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ   scale4

scale16:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMULPD  32(SI)(AX*8), Y0, Y2
	VMULPD  64(SI)(AX*8), Y0, Y3
	VMULPD  96(SI)(AX*8), Y0, Y4
	VMOVUPD Y1, (SI)(AX*8)
	VMOVUPD Y2, 32(SI)(AX*8)
	VMOVUPD Y3, 64(SI)(AX*8)
	VMOVUPD Y4, 96(SI)(AX*8)
	ADDQ    $16, AX
	CMPQ    AX, DX
	JLT     scale16

scale4:
	MOVQ CX, DX
	ANDQ $-4, DX
	CMPQ AX, DX
	JGE  scale1

scale4loop:
	VMULPD  (SI)(AX*8), Y0, Y1
	VMOVUPD Y1, (SI)(AX*8)
	ADDQ    $4, AX
	CMPQ    AX, DX
	JLT     scale4loop

scale1:
	CMPQ AX, CX
	JGE  scaledone

scale1loop:
	VMULSD (SI)(AX*8), X0, X1
	VMOVSD X1, (SI)(AX*8)
	INCQ   AX
	CMPQ   AX, CX
	JLT    scale1loop

scaledone:
	VZEROUPPER
	RET

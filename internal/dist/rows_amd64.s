#include "textflag.h"

// SSE2 kernels of rows.go. SSE2 is the amd64 baseline (GOAMD64=v1), so
// they need no CPU detection. Every sum stays in its own lane and
// receives its terms in the plain-Go twin's order; see rows.go for why
// the bits match. X14 holds the sign-clearing mask 0x7FFF… in both
// lanes, so ANDPD X14 is math.Abs.

// func segmentalRows(out, data []float64, d int, rows, dims []int, center []float64)
//
// Rows go four at a time, then two, then one. Lane 0 of X0 sums the
// group's first row and lane 1 its second; X1 holds the third and
// fourth. Each lane adds |row_j − center_j| over dims in order, from
// +0, and is then divided by |dims|, as Segmental does.
TEXT ·segmentalRows(SB), NOSPLIT, $0-128
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ data_base+24(FP), SI     // listed rows: the data; nil rows: the next row
	MOVQ d+48(FP), R8
	SHLQ $3, R8                   // R8 = row stride in bytes
	MOVQ rows_base+56(FP), R9     // nil: the rows are contiguous from SI
	MOVQ dims_base+80(FP), BX
	MOVQ dims_len+88(FP), R12
	LEAQ (BX)(R12*8), BX          // BX = end of dims, indexed from −|dims|
	MOVQ center_base+104(FP), R11
	CVTSQ2SD R12, X13
	UNPCKLPD X13, X13             // X13 = [|dims|, |dims|]
	MOVQ $0x7fffffffffffffff, AX
	MOVQ AX, X14
	PUNPCKLQDQ X14, X14

loop4:
	CMPQ  CX, $4
	JB    loop2
	TESTQ R9, R9
	JZ    next4
	MOVQ  0(R9), AX
	IMULQ R8, AX
	ADDQ  SI, AX
	MOVQ  8(R9), DX
	IMULQ R8, DX
	ADDQ  SI, DX
	MOVQ  16(R9), R10
	IMULQ R8, R10
	ADDQ  SI, R10
	MOVQ  24(R9), R14
	IMULQ R8, R14
	ADDQ  SI, R14
	ADDQ  $32, R9
	JMP   sum4

next4:
	MOVQ SI, AX
	LEAQ (AX)(R8*1), DX
	LEAQ (DX)(R8*1), R10
	LEAQ (R10)(R8*1), R14
	LEAQ (R14)(R8*1), SI

sum4:
	MOVQ  dims_len+88(FP), R12
	NEGQ  R12
	XORPS X0, X0
	XORPS X1, X1

dims4:
	MOVQ     (BX)(R12*8), R13
	MOVSD    (R11)(R13*8), X2
	UNPCKLPD X2, X2
	MOVSD    (AX)(R13*8), X3
	MOVHPD   (DX)(R13*8), X3
	MOVSD    (R10)(R13*8), X4
	MOVHPD   (R14)(R13*8), X4
	SUBPD    X2, X3
	SUBPD    X2, X4
	ANDPD    X14, X3
	ANDPD    X14, X4
	ADDPD    X3, X0
	ADDPD    X4, X1
	INCQ     R12
	JNZ      dims4
	DIVPD    X13, X0
	DIVPD    X13, X1
	MOVUPD   X0, 0(DI)
	MOVUPD   X1, 16(DI)
	ADDQ     $32, DI
	SUBQ     $4, CX
	JMP      loop4

loop2:
	CMPQ  CX, $2
	JB    loop1
	TESTQ R9, R9
	JZ    next2
	MOVQ  0(R9), AX
	IMULQ R8, AX
	ADDQ  SI, AX
	MOVQ  8(R9), DX
	IMULQ R8, DX
	ADDQ  SI, DX
	ADDQ  $16, R9
	JMP   sum2

next2:
	MOVQ SI, AX
	LEAQ (AX)(R8*1), DX
	LEAQ (DX)(R8*1), SI

sum2:
	MOVQ  dims_len+88(FP), R12
	NEGQ  R12
	XORPS X0, X0

dims2:
	MOVQ     (BX)(R12*8), R13
	MOVSD    (R11)(R13*8), X2
	UNPCKLPD X2, X2
	MOVSD    (AX)(R13*8), X3
	MOVHPD   (DX)(R13*8), X3
	SUBPD    X2, X3
	ANDPD    X14, X3
	ADDPD    X3, X0
	INCQ     R12
	JNZ      dims2
	DIVPD    X13, X0
	MOVUPD   X0, 0(DI)
	ADDQ     $16, DI
	SUBQ     $2, CX

loop1:
	TESTQ CX, CX
	JZ    done
	MOVQ  SI, AX
	TESTQ R9, R9
	JZ    sum1
	MOVQ  0(R9), AX
	IMULQ R8, AX
	ADDQ  SI, AX

sum1:
	MOVQ  dims_len+88(FP), R12
	NEGQ  R12
	XORPS X0, X0

dims1:
	MOVQ  (BX)(R12*8), R13
	MOVSD (AX)(R13*8), X3
	MOVSD (R11)(R13*8), X2
	SUBSD X2, X3
	ANDPD X14, X3
	ADDSD X3, X0
	INCQ  R12
	JNZ   dims1
	DIVSD X13, X0
	MOVSD X0, 0(DI)

done:
	RET

// func addAbsDiffs(x, center, data []float64, d int, rows []int)
//
// Rows go four at a time, then one. A group walks its rows front to
// back two coordinates at a time: it loads x's pair, adds the rows'
// terms to it in list order, and stores it back, so each x[j] receives
// the terms in the plain loop's order. An odd last coordinate goes
// alone.
TEXT ·addAbsDiffs(SB), NOSPLIT, $0-104
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), AX
	ANDQ $-2, AX                  // AX = coordinates taken in pairs
	MOVQ center_base+24(FP), DX
	MOVQ data_base+48(FP), SI
	MOVQ d+72(FP), R8
	SHLQ $3, R8                   // R8 = row stride in bytes
	MOVQ rows_base+80(FP), R9
	MOVQ rows_len+88(FP), CX
	MOVQ $0x7fffffffffffffff, BX
	MOVQ BX, X14
	PUNPCKLQDQ X14, X14

group4:
	CMPQ  CX, $4
	JB    group1
	MOVQ  0(R9), R10
	IMULQ R8, R10
	ADDQ  SI, R10
	MOVQ  8(R9), R11
	IMULQ R8, R11
	ADDQ  SI, R11
	MOVQ  16(R9), R12
	IMULQ R8, R12
	ADDQ  SI, R12
	MOVQ  24(R9), R13
	IMULQ R8, R13
	ADDQ  SI, R13
	XORQ  BX, BX
	CMPQ  BX, AX
	JAE   odd4

pairs4:
	MOVUPD (DI)(BX*8), X0
	MOVUPD (DX)(BX*8), X1
	MOVUPD (R10)(BX*8), X2
	MOVUPD (R11)(BX*8), X3
	MOVUPD (R12)(BX*8), X4
	MOVUPD (R13)(BX*8), X5
	SUBPD  X1, X2
	SUBPD  X1, X3
	SUBPD  X1, X4
	SUBPD  X1, X5
	ANDPD  X14, X2
	ANDPD  X14, X3
	ANDPD  X14, X4
	ANDPD  X14, X5
	ADDPD  X2, X0
	ADDPD  X3, X0
	ADDPD  X4, X0
	ADDPD  X5, X0
	MOVUPD X0, (DI)(BX*8)
	ADDQ   $2, BX
	CMPQ   BX, AX
	JB     pairs4

odd4:
	CMPQ  BX, x_len+8(FP)
	JAE   next4
	MOVSD (DI)(BX*8), X0
	MOVSD (DX)(BX*8), X1
	MOVSD (R10)(BX*8), X2
	MOVSD (R11)(BX*8), X3
	MOVSD (R12)(BX*8), X4
	MOVSD (R13)(BX*8), X5
	SUBSD X1, X2
	SUBSD X1, X3
	SUBSD X1, X4
	SUBSD X1, X5
	ANDPD X14, X2
	ANDPD X14, X3
	ANDPD X14, X4
	ANDPD X14, X5
	ADDSD X2, X0
	ADDSD X3, X0
	ADDSD X4, X0
	ADDSD X5, X0
	MOVSD X0, (DI)(BX*8)

next4:
	ADDQ $32, R9
	SUBQ $4, CX
	JMP  group4

group1:
	TESTQ CX, CX
	JZ    done
	MOVQ  0(R9), R10
	IMULQ R8, R10
	ADDQ  SI, R10
	XORQ  BX, BX
	CMPQ  BX, AX
	JAE   odd1

pairs1:
	MOVUPD (DI)(BX*8), X0
	MOVUPD (DX)(BX*8), X1
	MOVUPD (R10)(BX*8), X2
	SUBPD  X1, X2
	ANDPD  X14, X2
	ADDPD  X2, X0
	MOVUPD X0, (DI)(BX*8)
	ADDQ   $2, BX
	CMPQ   BX, AX
	JB     pairs1

odd1:
	CMPQ  BX, x_len+8(FP)
	JAE   next1
	MOVSD (DI)(BX*8), X0
	MOVSD (DX)(BX*8), X1
	MOVSD (R10)(BX*8), X2
	SUBSD X1, X2
	ANDPD X14, X2
	ADDSD X2, X0
	MOVSD X0, (DI)(BX*8)

next1:
	ADDQ $8, R9
	DECQ CX
	JMP  group1

done:
	RET

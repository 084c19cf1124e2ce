#include "textflag.h"

// Every kernel below starts by testing avx2 (kernels_amd64.go) and, when
// it is false, jumps to its Go loop in kernels.go with the same
// arguments. Otherwise it takes sixteen words per step in YMM registers
// while sixteen remain, runs VZEROUPPER, then takes one eight-word step
// in XMM registers (VEX.128) if eight remain, and the rest one word at a
// time. A path that runs no sixteen-word step touches no YMM register.

// func hasAVX2() bool
TEXT ·hasAVX2(SB), NOSPLIT, $0-1
	MOVB  $0, ret+0(FP)
	XORL  AX, AX
	XORL  CX, CX
	CPUID               // AX: the highest basic leaf
	CMPL  AX, $7
	JB    no
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX // OSXSAVE (bit 27) and AVX (bit 28)
	CMPL  CX, $0x18000000
	JNE   no
	XORL  CX, CX
	XGETBV              // XCR0: the register state the OS saves
	ANDL  $6, AX        // XMM (bit 1) and YMM (bit 2)
	CMPL  AX, $6
	JNE   no
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	SHRL  $5, BX        // AVX2 (leaf 7, EBX bit 5)
	ANDL  $1, BX
	MOVB  BX, ret+0(FP)

no:
	RET

// VPMADDWD multiplies pairs of int16 words and adds adjacent products
// into int32 lanes. The true sum of a lane lies in [-2^31+2^16, 2^31].
// Only 2^31, from four words of -32768, does not fit: it reads as
// -2^31. So a lane v stands for itself, except that -2^31 stands for
// +2^31, and the high half of its int64 value is -1 exactly when
// v-1 < -1 in int32 arithmetic, where the one wrapped value becomes
// 2^31-1 and counts as positive.
//
// WIDEN(v, hi, t, m) widens the lanes of v into exact int64s. Within
// each 128-bit half, lanes 0 and 1 go into v and lanes 2 and 3 into hi.
// t is scratch, and m must hold -1 in every lane. It works on X or Y
// registers.
#define WIDEN(v, hi, t, m) \
	VPADDD     m, v, hi; \
	VPCMPGTD   hi, m, t; \
	VPUNPCKHDQ t, v, hi; \
	VPUNPCKLDQ t, v, v

// func dotAcc(a, b []Num) Acc
TEXT ·dotAcc(SB), NOSPLIT, $0-56
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	XORQ DX, DX
	CMPQ CX, $8
	JB   tail
	CMPQ CX, $16
	JB   short
	MOVQ CX, BX
	ANDQ $-16, BX         // elements summed sixteen at a time
	VPXOR    Y4, Y4, Y4   // the int64 sums
	VPXOR    Y5, Y5, Y5
	VPCMPEQD Y7, Y7, Y7

loop:
	VMOVDQU  (SI)(DX*2), Y0
	VPMADDWD (DI)(DX*2), Y0, Y0
	WIDEN(Y0, Y1, Y2, Y7)
	VPADDQ   Y0, Y4, Y4
	VPADDQ   Y1, Y5, Y5
	ADDQ     $16, DX
	CMPQ     DX, BX
	JNE      loop
	VPADDQ       Y5, Y4, Y4
	VEXTRACTI128 $1, Y4, X5
	VPADDQ       X5, X4, X4
	VZEROUPPER
	JMP          half

short:
	VPXOR    X4, X4, X4
	VPCMPEQD X7, X7, X7

half:
	TESTQ    $8, CX       // eight left after the sixteen-word steps
	JZ       fold
	VMOVDQU  (SI)(DX*2), X0
	VPMADDWD (DI)(DX*2), X0, X0
	WIDEN(X0, X1, X2, X7)
	VPADDQ   X0, X4, X4
	VPADDQ   X1, X4, X4
	ADDQ     $8, DX

fold:
	VPSHUFD $0xee, X4, X5
	VPADDQ  X5, X4, X4
	VMOVQ   X4, AX

tail:
	CMPQ    DX, CX
	JEQ     done
	MOVWQSX (SI)(DX*2), R8
	MOVWQSX (DI)(DX*2), R9
	IMULQ   R9, R8
	ADDQ    R8, AX
	INCQ    DX
	JMP     tail

done:
	MOVQ AX, ret+48(FP)
	RET

generic:
	JMP ·dotAccGo(SB)

// func axpy2Acc(acc []Acc, r0, r1 []Num, v0, v1 Num)
TEXT ·axpy2Acc(SB), NOSPLIT, $0-76
	CMPB    ·avx2(SB), $0
	JEQ     generic
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	MOVQ    r0_base+24(FP), SI
	MOVQ    r1_base+48(FP), R10
	MOVWQSX v0+72(FP), R8
	MOVWQSX v1+74(FP), R9
	XORQ    DX, DX
	CMPQ    CX, $8
	JB      tail
	MOVWLZX R8, AX
	MOVL    R9, R11
	SHLL    $16, R11
	ORL     R11, AX
	VMOVD   AX, X6        // v0, v1 in one pair of words
	CMPQ    CX, $16
	JB      short
	MOVQ    CX, BX
	ANDQ    $-16, BX      // elements updated sixteen at a time
	VPBROADCASTD X6, Y6
	VPCMPEQD     Y7, Y7, Y7

loop:
	VMOVDQU    (SI)(DX*2), Y0
	VMOVDQU    (R10)(DX*2), Y1
	VPUNPCKHWD Y1, Y0, Y2 // r0[j], r1[j] for j = 4..7 and 12..15
	VPUNPCKLWD Y1, Y0, Y0 // the same for j = 0..3 and 8..11
	VPMADDWD   Y6, Y0, Y0
	VPMADDWD   Y6, Y2, Y2
	// Each half of a register holds four sums. Put the sums for
	// j = 0..3 in one pair of lanes per half, so that WIDEN's low
	// halves are acc[j..j+3] in order: j = 0, 1, 8, 9 | 2, 3, 10, 11.
	VPERMQ     $0xd8, Y0, Y0
	VPERMQ     $0xd8, Y2, Y2
	WIDEN(Y0, Y1, Y3, Y7) // Y0: j = 0..3, Y1: j = 8..11
	WIDEN(Y2, Y4, Y3, Y7) // Y2: j = 4..7, Y4: j = 12..15
	VPADDQ     (DI)(DX*8), Y0, Y0
	VPADDQ     32(DI)(DX*8), Y2, Y2
	VPADDQ     64(DI)(DX*8), Y1, Y1
	VPADDQ     96(DI)(DX*8), Y4, Y4
	VMOVDQU    Y0, (DI)(DX*8)
	VMOVDQU    Y2, 32(DI)(DX*8)
	VMOVDQU    Y1, 64(DI)(DX*8)
	VMOVDQU    Y4, 96(DI)(DX*8)
	ADDQ       $16, DX
	CMPQ       DX, BX
	JNE        loop
	VZEROUPPER
	JMP        half

short:
	VPBROADCASTD X6, X6
	VPCMPEQD     X7, X7, X7

half:
	TESTQ      $8, CX
	JZ         tail
	VMOVDQU    (SI)(DX*2), X0
	VMOVDQU    (R10)(DX*2), X1
	VPUNPCKHWD X1, X0, X2 // r0[j], r1[j] for j = 4..7
	VPUNPCKLWD X1, X0, X0 // the same for j = 0..3
	VPMADDWD   X6, X0, X0
	VPMADDWD   X6, X2, X2
	WIDEN(X0, X1, X3, X7) // X0: j = 0, 1, X1: j = 2, 3
	WIDEN(X2, X4, X3, X7) // X2: j = 4, 5, X4: j = 6, 7
	VPADDQ     (DI)(DX*8), X0, X0
	VPADDQ     16(DI)(DX*8), X1, X1
	VPADDQ     32(DI)(DX*8), X2, X2
	VPADDQ     48(DI)(DX*8), X4, X4
	VMOVDQU    X0, (DI)(DX*8)
	VMOVDQU    X1, 16(DI)(DX*8)
	VMOVDQU    X2, 32(DI)(DX*8)
	VMOVDQU    X4, 48(DI)(DX*8)
	ADDQ       $8, DX

tail:
	CMPQ    DX, CX
	JEQ     done
	MOVWQSX (SI)(DX*2), AX
	IMULQ   R8, AX
	MOVWQSX (R10)(DX*2), R11
	IMULQ   R9, R11
	ADDQ    R11, AX
	ADDQ    AX, (DI)(DX*8)
	INCQ    DX
	JMP     tail

done:
	RET

generic:
	JMP ·axpy2AccGo(SB)

// The element-wise kernels below set out[i] for every i < len(out) from
// a[i] and b[i], or from a[i] and a scalar s broadcast to every word.
// After the sixteen- and eight-word steps, each word is loaded alone
// into the low word of a register and goes through the same
// instructions, so the tail computes what the wider steps do and no
// load passes a slice's end. A step loads both operands before it
// stores, so out may be a or b.
//
// LOADW(src, x) zero-extends the word at src into the low word of x;
// STOREW(x, dst) stores the low word of x at dst. Both use AX.
#define LOADW(src, x) \
	MOVWQZX src, AX; \
	VMOVD   AX, x

#define STOREW(x, dst) \
	VMOVD x, AX; \
	MOVW  AX, dst

// MULQ(x, y, t, u, r) sets each word of x to Mul(x, y): VPMULLW and
// VPMULHW give the low and high halves of the int32 products, which lie
// in [-2^30+2^15, 2^30], so adding 128 (r holds it in every int32 lane)
// cannot wrap; VPSRAD is Go's arithmetic >> 8 on int32, and VPACKSSDW
// saturates each result to int16 as sat32 does. The unpacks and the
// pack both work within 128-bit halves, so every word comes back to
// its own position. t and u are scratch; it works on X or Y registers.
#define MULQ(x, y, t, u, r) \
	VPMULHW    y, x, t; \
	VPMULLW    y, x, x; \
	VPUNPCKHWD t, x, u; \
	VPUNPCKLWD t, x, x; \
	VPADDD     r, x, x; \
	VPADDD     r, u, u; \
	VPSRAD     $8, x, x; \
	VPSRAD     $8, u, u; \
	VPACKSSDW  u, x, x

// func vadd(out, a, b []Num)
TEXT ·vadd(SB), NOSPLIT, $0-72
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   half

loop:
	VMOVDQU (SI)(DX*2), Y0
	VPADDSW (R10)(DX*2), Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	VPADDSW (R10)(DX*2), X0, X0
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ    DX, CX
	JEQ     done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	VPADDSW X1, X0, X0
	STOREW(X0, (DI)(DX*2))
	INCQ    DX
	JMP     tail

done:
	RET

generic:
	JMP ·vaddGo(SB)

// func vsub(out, a, b []Num)
TEXT ·vsub(SB), NOSPLIT, $0-72
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   half

loop:
	VMOVDQU (SI)(DX*2), Y0
	VPSUBSW (R10)(DX*2), Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	VPSUBSW (R10)(DX*2), X0, X0
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ    DX, CX
	JEQ     done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	VPSUBSW X1, X0, X0
	STOREW(X0, (DI)(DX*2))
	INCQ    DX
	JMP     tail

done:
	RET

generic:
	JMP ·vsubGo(SB)

// func vmax(out, a, b []Num)
TEXT ·vmax(SB), NOSPLIT, $0-72
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   half

loop:
	VMOVDQU (SI)(DX*2), Y0
	VPMAXSW (R10)(DX*2), Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	VPMAXSW (R10)(DX*2), X0, X0
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ    DX, CX
	JEQ     done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	VPMAXSW X1, X0, X0
	STOREW(X0, (DI)(DX*2))
	INCQ    DX
	JMP     tail

done:
	RET

generic:
	JMP ·vmaxGo(SB)

// func vmul(out, a, b []Num)
TEXT ·vmul(SB), NOSPLIT, $0-72
	CMPB  ·avx2(SB), $0
	JEQ   generic
	MOVQ  out_base+0(FP), DI
	MOVQ  out_len+8(FP), CX
	MOVQ  a_base+24(FP), SI
	MOVQ  b_base+48(FP), R10
	MOVL  $128, AX        // half of one Q8.8 step
	VMOVD AX, X7
	XORQ  DX, DX
	MOVQ  CX, BX
	ANDQ  $-16, BX
	JZ    short
	VPBROADCASTD X7, Y7

loop:
	VMOVDQU (SI)(DX*2), Y0
	VMOVDQU (R10)(DX*2), Y1
	MULQ(Y0, Y1, Y2, Y3, Y7)
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER
	JMP     half

short:
	VPBROADCASTD X7, X7

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	VMOVDQU (R10)(DX*2), X1
	MULQ(X0, X1, X2, X3, X7)
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ DX, CX
	JEQ  done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	MULQ(X0, X1, X2, X3, X7)
	STOREW(X0, (DI)(DX*2))
	INCQ DX
	JMP  tail

done:
	RET

generic:
	JMP ·vmulGo(SB)

// func vaddScalar(out, a []Num, s Num)
TEXT ·vaddScalar(SB), NOSPLIT, $0-50
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-16, BX
	JZ   short
	VPBROADCASTW s+48(FP), Y1

loop:
	VMOVDQU (SI)(DX*2), Y0
	VPADDSW Y1, Y0, Y0
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER
	JMP     half

short:
	VPBROADCASTW s+48(FP), X1

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	VPADDSW X1, X0, X0
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ    DX, CX
	JEQ     done
	LOADW((SI)(DX*2), X0)
	VPADDSW X1, X0, X0
	STOREW(X0, (DI)(DX*2))
	INCQ    DX
	JMP     tail

done:
	RET

generic:
	JMP ·vaddScalarGo(SB)

// func vmulScalar(out, a []Num, s Num)
TEXT ·vmulScalar(SB), NOSPLIT, $0-50
	CMPB  ·avx2(SB), $0
	JEQ   generic
	MOVQ  out_base+0(FP), DI
	MOVQ  out_len+8(FP), CX
	MOVQ  a_base+24(FP), SI
	MOVL  $128, AX
	VMOVD AX, X7
	XORQ  DX, DX
	MOVQ  CX, BX
	ANDQ  $-16, BX
	JZ    short
	VPBROADCASTW s+48(FP), Y1
	VPBROADCASTD X7, Y7

loop:
	VMOVDQU (SI)(DX*2), Y0
	MULQ(Y0, Y1, Y2, Y3, Y7)
	VMOVDQU Y0, (DI)(DX*2)
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	VZEROUPPER
	JMP     half

short:
	VPBROADCASTW s+48(FP), X1
	VPBROADCASTD X7, X7

half:
	TESTQ   $8, CX
	JZ      tail
	VMOVDQU (SI)(DX*2), X0
	MULQ(X0, X1, X2, X3, X7)
	VMOVDQU X0, (DI)(DX*2)
	ADDQ    $8, DX

tail:
	CMPQ DX, CX
	JEQ  done
	LOADW((SI)(DX*2), X0)
	MULQ(X0, X1, X2, X3, X7)
	STOREW(X0, (DI)(DX*2))
	INCQ DX
	JMP  tail

done:
	RET

generic:
	JMP ·vmulScalarGo(SB)

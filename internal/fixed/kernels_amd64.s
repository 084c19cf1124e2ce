#include "textflag.h"

// PMADDWL multiplies eight pairs of int16 words and adds adjacent
// products into four int32 lanes. The true sum of a lane lies in
// [-2^31+2^16, 2^31]. Only 2^31, from four words of -32768, does not
// fit: it reads as -2^31. So a lane v stands for itself, except that
// -2^31 stands for +2^31, and the high half of its int64 value is -1
// exactly when v-1 < -1 in int32 arithmetic, where the one wrapped
// value becomes 2^31-1 and counts as positive.
//
// WIDEN(v, hi, t) widens the four lanes of v into exact int64s: lanes
// 0 and 1 into v, lanes 2 and 3 into hi. t is scratch, and X7 must
// hold -1 in every lane.
#define WIDEN(v, hi, t) \
	MOVO      v, hi; \
	PADDL     X7, hi; \
	MOVO      X7, t; \
	PCMPGTL   hi, t; \
	MOVO      v, hi; \
	PUNPCKLLQ t, v; \
	PUNPCKHLQ t, hi

// func dotAcc(a, b []Num) Acc
TEXT ·dotAcc(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORQ AX, AX
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX      // elements summed eight at a time
	JZ   tail
	PXOR    X4, X4    // int64 sums of lanes 0 and 1
	PXOR    X5, X5    // int64 sums of lanes 2 and 3
	PCMPEQL X7, X7

loop:
	MOVOU   (SI)(DX*2), X0
	MOVOU   (DI)(DX*2), X1
	PMADDWL X1, X0
	WIDEN(X0, X1, X2)
	PADDQ   X0, X4
	PADDQ   X1, X5
	ADDQ    $8, DX
	CMPQ    DX, BX
	JNE     loop
	PADDQ   X5, X4
	PSHUFD  $0xee, X4, X5
	PADDQ   X5, X4
	MOVQ    X4, AX

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

// func axpy2Acc(acc []Acc, r0, r1 []Num, v0, v1 Num)
TEXT ·axpy2Acc(SB), NOSPLIT, $0-76
	MOVQ    acc_base+0(FP), DI
	MOVQ    acc_len+8(FP), CX
	MOVQ    r0_base+24(FP), SI
	MOVQ    r1_base+48(FP), R10
	MOVWQSX v0+72(FP), R8
	MOVWQSX v1+74(FP), R9
	XORQ    DX, DX
	MOVQ    CX, BX
	ANDQ    $-8, BX   // elements updated eight at a time
	JZ      tail
	MOVWLZX R8, AX
	MOVL    R9, R11
	SHLL    $16, R11
	ORL     R11, AX
	MOVQ    AX, X6
	PSHUFD  $0, X6, X6 // v0, v1 in every pair of words
	PCMPEQL X7, X7

loop:
	MOVOU     (SI)(DX*2), X0
	MOVOU     (R10)(DX*2), X1
	MOVO      X0, X2
	PUNPCKLWL X1, X0   // r0[j], r1[j] for j = 0..3
	PUNPCKHWL X1, X2   // the same for j = 4..7
	PMADDWL   X6, X0
	PMADDWL   X6, X2
	WIDEN(X0, X1, X3)
	WIDEN(X2, X4, X3)
	MOVOU     (DI)(DX*8), X8
	MOVOU     16(DI)(DX*8), X9
	MOVOU     32(DI)(DX*8), X10
	MOVOU     48(DI)(DX*8), X11
	PADDQ     X0, X8
	PADDQ     X1, X9
	PADDQ     X2, X10
	PADDQ     X4, X11
	MOVOU     X8, (DI)(DX*8)
	MOVOU     X9, 16(DI)(DX*8)
	MOVOU     X10, 32(DI)(DX*8)
	MOVOU     X11, 48(DI)(DX*8)
	ADDQ      $8, DX
	CMPQ      DX, BX
	JNE       loop

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

// The element-wise kernels below set out[i] for every i < len(out) from
// a[i] and b[i], or from a[i] and a scalar s broadcast to every word.
// They take eight words per step while eight remain, then one word per
// step: that word is loaded alone into the low word of a register and
// goes through the same instructions, so the tail computes what the
// body does and no load passes a slice's end. A step loads both
// operands before it stores, so out may be a or b.
//
// LOADW(src, x) zero-extends the word at src into the low word of x;
// STOREW(x, dst) stores the low word of x at dst. Both use AX.
#define LOADW(src, x) \
	MOVWQZX src, AX; \
	MOVQ    AX, x

#define STOREW(x, dst) \
	MOVQ x, AX; \
	MOVW AX, dst

// BROADCAST(src, x) copies the word at src into all eight words of x.
#define BROADCAST(src, x) \
	LOADW(src, x); \
	PSHUFLW $0, x, x; \
	PSHUFD  $0, x, x

// MULQ(x, y, t, u) sets each word of x to Mul(x, y): PMULLW and PMULHW
// give the low and high halves of the eight int32 products, which lie
// in [-2^30+2^15, 2^30], so adding 128 (X7 holds it in every int32
// lane) cannot wrap; PSRAL is Go's arithmetic >> 8 on int32, and
// PACKSSLW saturates each result to int16 as sat32 does. t and u are
// scratch.
#define MULQ(x, y, t, u) \
	MOVO      x, t; \
	PMULLW    y, x; \
	PMULHW    y, t; \
	MOVO      x, u; \
	PUNPCKLWL t, x; \
	PUNPCKHWL t, u; \
	PADDL     X7, x; \
	PADDL     X7, u; \
	PSRAL     $8, x; \
	PSRAL     $8, u; \
	PACKSSLW  u, x

// ROUND128 puts 128, half of one Q8.8 step, in every int32 lane of X7.
#define ROUND128 \
	MOVL   $128, AX; \
	MOVQ   AX, X7; \
	PSHUFD $0, X7, X7

// func vadd(out, a, b []Num)
TEXT ·vadd(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU  (SI)(DX*2), X0
	MOVOU  (R10)(DX*2), X1
	PADDSW X1, X0
	MOVOU  X0, (DI)(DX*2)
	ADDQ   $8, DX
	CMPQ   DX, BX
	JNE    loop

tail:
	CMPQ   DX, CX
	JEQ    done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	PADDSW X1, X0
	STOREW(X0, (DI)(DX*2))
	INCQ   DX
	JMP    tail

done:
	RET

// func vsub(out, a, b []Num)
TEXT ·vsub(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU  (SI)(DX*2), X0
	MOVOU  (R10)(DX*2), X1
	PSUBSW X1, X0
	MOVOU  X0, (DI)(DX*2)
	ADDQ   $8, DX
	CMPQ   DX, BX
	JNE    loop

tail:
	CMPQ   DX, CX
	JEQ    done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	PSUBSW X1, X0
	STOREW(X0, (DI)(DX*2))
	INCQ   DX
	JMP    tail

done:
	RET

// func vmax(out, a, b []Num)
TEXT ·vmax(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU  (SI)(DX*2), X0
	MOVOU  (R10)(DX*2), X1
	PMAXSW X1, X0
	MOVOU  X0, (DI)(DX*2)
	ADDQ   $8, DX
	CMPQ   DX, BX
	JNE    loop

tail:
	CMPQ   DX, CX
	JEQ    done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	PMAXSW X1, X0
	STOREW(X0, (DI)(DX*2))
	INCQ   DX
	JMP    tail

done:
	RET

// func vmul(out, a, b []Num)
TEXT ·vmul(SB), NOSPLIT, $0-72
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), R10
	ROUND128
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU (SI)(DX*2), X0
	MOVOU (R10)(DX*2), X1
	MULQ(X0, X1, X2, X3)
	MOVOU X0, (DI)(DX*2)
	ADDQ  $8, DX
	CMPQ  DX, BX
	JNE   loop

tail:
	CMPQ DX, CX
	JEQ  done
	LOADW((SI)(DX*2), X0)
	LOADW((R10)(DX*2), X1)
	MULQ(X0, X1, X2, X3)
	STOREW(X0, (DI)(DX*2))
	INCQ DX
	JMP  tail

done:
	RET

// func vaddScalar(out, a []Num, s Num)
TEXT ·vaddScalar(SB), NOSPLIT, $0-50
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	BROADCAST(s+48(FP), X1)
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU  (SI)(DX*2), X0
	PADDSW X1, X0
	MOVOU  X0, (DI)(DX*2)
	ADDQ   $8, DX
	CMPQ   DX, BX
	JNE    loop

tail:
	CMPQ   DX, CX
	JEQ    done
	LOADW((SI)(DX*2), X0)
	PADDSW X1, X0
	STOREW(X0, (DI)(DX*2))
	INCQ   DX
	JMP    tail

done:
	RET

// func vmulScalar(out, a []Num, s Num)
TEXT ·vmulScalar(SB), NOSPLIT, $0-50
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	BROADCAST(s+48(FP), X1)
	ROUND128
	XORQ DX, DX
	MOVQ CX, BX
	ANDQ $-8, BX
	JZ   tail

loop:
	MOVOU (SI)(DX*2), X0
	MULQ(X0, X1, X2, X3)
	MOVOU X0, (DI)(DX*2)
	ADDQ  $8, DX
	CMPQ  DX, BX
	JNE   loop

tail:
	CMPQ DX, CX
	JEQ  done
	LOADW((SI)(DX*2), X0)
	MULQ(X0, X1, X2, X3)
	STOREW(X0, (DI)(DX*2))
	INCQ DX
	JMP  tail

done:
	RET

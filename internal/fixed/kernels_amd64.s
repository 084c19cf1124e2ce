#include "textflag.h"

// Every kernel below starts by testing avx2 (kernels_amd64.go) and, when
// it is false, jumps to its Go loop in kernels.go with the same
// arguments. The element-wise kernels take sixteen words per step in YMM
// registers while sixteen remain, run VZEROUPPER, then take one
// eight-word step in XMM registers (VEX.128) if eight remain, and the
// rest one word at a time. The matrix kernels (maxAbs, matVecAcc and
// vecMatAcc) take sixteen words per step and cover a remainder with one
// more sixteen-word step over the last sixteen words, so they need at
// least sixteen words and take shorter operands one word at a time. A
// path that runs no sixteen-word step touches no YMM register; every
// path that does runs VZEROUPPER before it returns.

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
// The matrix kernels add k such lanes in int32 before they widen them,
// where k = widenSteps(maxAbs(vin)) (kernels.go): with every vector word
// at most b in magnitude, a lane is at most 2^16·b in magnitude, and k
// of them stay within ±(2^31-1), so the int32 sum is the true one and
// never -2^31. With k = 1 a sum is one lane, and the rule above holds.
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

// FLUSH(a, s0, s1, hi, t, m) widens the int32 sums in a, adds the int64s
// of lanes 0 and 1 of each 128-bit half into s0 and those of lanes 2
// and 3 into s1, and zeroes a. hi, t and m are WIDEN's; s0 and s1 may
// be one register.
#define FLUSH(a, s0, s1, hi, t, m) \
	WIDEN(a, hi, t, m); \
	VPADDQ a, s0, s0; \
	VPADDQ hi, s1, s1; \
	VPXOR  a, a, a

// tailmask is sixteen zero words and sixteen words of -1. The sixteen
// words at word offset r are 16-r zeros and then r words of -1: ANDed
// into the last sixteen words of a vector, they keep only the last r.
DATA tailmask<>+0(SB)/8, $0
DATA tailmask<>+8(SB)/8, $0
DATA tailmask<>+16(SB)/8, $0
DATA tailmask<>+24(SB)/8, $0
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
GLOBL tailmask<>(SB), RODATA|NOPTR, $64

// func maxAbs(v []Num) int
TEXT ·maxAbs(SB), NOSPLIT, $0-32
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ v_base+0(FP), SI
	MOVQ v_len+8(FP), CX
	XORQ AX, AX
	XORQ DX, DX
	CMPQ CX, $16
	JB   tail
	MOVQ CX, BX
	ANDQ $-16, BX
	VPXOR Y0, Y0, Y0

loop:
	// VPABSW leaves -32768 as 0x8000, which is 32768 read unsigned.
	VPABSW  (SI)(DX*2), Y1
	VPMAXUW Y1, Y0, Y0
	ADDQ    $16, DX
	CMPQ    DX, BX
	JNE     loop
	// The last sixteen words again: they cover the ones the loop left,
	// and a word seen twice does not change the maximum.
	VPABSW       -32(SI)(CX*2), Y1
	VPMAXUW      Y1, Y0, Y0
	VEXTRACTI128 $1, Y0, X1
	VPMAXUW      X1, X0, X0
	// VPHMINPOSUW finds the smallest unsigned word. Of the complements,
	// that is the complement of the largest.
	VPCMPEQW    X1, X1, X1
	VPXOR       X1, X0, X0
	VPHMINPOSUW X0, X0
	VMOVD       X0, AX
	NOTL        AX
	ANDL        $0xffff, AX
	VZEROUPPER
	MOVQ        AX, ret+24(FP)
	RET

tail:
	CMPQ    DX, CX
	JEQ     done
	MOVWQSX (SI)(DX*2), R8
	MOVQ    R8, R9
	SARQ    $63, R9
	XORQ    R9, R8
	SUBQ    R9, R8 // |v[i]|
	CMPQ    R8, AX
	CMOVQGT R8, AX
	INCQ    DX
	JMP     tail

done:
	MOVQ AX, ret+24(FP)
	RET

generic:
	JMP ·maxAbsGo(SB)

// func matVecAcc(sums []Acc, mat, vin []Num, k int)
//
// Four rows per pass. A step loads sixteen words of vin once and takes
// VPMADDWD of them with sixteen words of each of the four rows, as
// memory operands, into one int32 accumulator per row. Every k steps,
// and after the last, FLUSH widens the four into one int64 accumulator
// per row. When len(vin) is not a multiple of sixteen, one more step
// takes the last sixteen words of each row, with the words an earlier
// step took masked to 0 in vin (tailmask): every word counts once and no
// load passes a row's end. A last pass over one to three rows repeats
// the last row in the missing places and stores only the rows that
// exist.
TEXT ·matVecAcc(SB), NOSPLIT, $0-80
	CMPB  ·avx2(SB), $0
	JEQ   generic
	MOVQ  sums_len+8(FP), R12
	MOVQ  mat_base+24(FP), R8
	MOVQ  vin_base+48(FP), SI
	MOVQ  vin_len+56(FP), CX
	TESTQ R12, R12
	JZ    done
	CMPQ  CX, $16
	JB    short
	MOVQ  CX, BX
	ANDQ  $-16, BX // words the whole steps take
	MOVQ  CX, AX
	ANDQ  $15, AX  // words the masked step adds
	LEAQ  tailmask<>(SB), DX
	VMOVDQU  (DX)(AX*2), Y13
	VPCMPEQD Y12, Y12, Y12
	XORQ     DI, DI // the pass's first row

pass:
	// R8 points at row DI; R9, R10 and R11 at the three after it, or at
	// the last row where those do not exist.
	MOVQ    CX, AX
	SHLQ    $1, AX // bytes per row
	LEAQ    1(DI), R13
	LEAQ    (R8)(AX*1), R9
	CMPQ    R13, R12
	CMOVQCC R8, R9
	INCQ    R13
	LEAQ    (R9)(AX*1), R10
	CMPQ    R13, R12
	CMOVQCC R9, R10
	INCQ    R13
	LEAQ    (R10)(AX*1), R11
	CMPQ    R13, R12
	CMOVQCC R10, R11
	VPXOR   Y2, Y2, Y2 // int32 sums of the four rows
	VPXOR   Y3, Y3, Y3
	VPXOR   Y4, Y4, Y4
	VPXOR   Y5, Y5, Y5
	VPXOR   Y6, Y6, Y6 // int64 sums of the four rows
	VPXOR   Y7, Y7, Y7
	VPXOR   Y8, Y8, Y8
	VPXOR   Y9, Y9, Y9
	XORQ    DX, DX
	MOVQ    k+72(FP), R13 // steps left before the next FLUSH

loop:
	VMOVDQU  (SI)(DX*2), Y0
	VPMADDWD (R8)(DX*2), Y0, Y1
	VPADDD   Y1, Y2, Y2
	VPMADDWD (R9)(DX*2), Y0, Y1
	VPADDD   Y1, Y3, Y3
	VPMADDWD (R10)(DX*2), Y0, Y1
	VPADDD   Y1, Y4, Y4
	VPMADDWD (R11)(DX*2), Y0, Y1
	VPADDD   Y1, Y5, Y5
	ADDQ     $16, DX
	DECQ     R13
	JNZ      more
	FLUSH(Y2, Y6, Y6, Y10, Y11, Y12)
	FLUSH(Y3, Y7, Y7, Y10, Y11, Y12)
	FLUSH(Y4, Y8, Y8, Y10, Y11, Y12)
	FLUSH(Y5, Y9, Y9, Y10, Y11, Y12)
	MOVQ     k+72(FP), R13

more:
	CMPQ DX, BX
	JNE  loop
	CMPQ DX, CX
	JEQ  last
	// The masked step. The loop leaves at least one step before the next
	// FLUSH, so this one fits.
	VMOVDQU  -32(SI)(CX*2), Y0
	VPAND    Y13, Y0, Y0
	VPMADDWD -32(R8)(CX*2), Y0, Y1
	VPADDD   Y1, Y2, Y2
	VPMADDWD -32(R9)(CX*2), Y0, Y1
	VPADDD   Y1, Y3, Y3
	VPMADDWD -32(R10)(CX*2), Y0, Y1
	VPADDD   Y1, Y4, Y4
	VPMADDWD -32(R11)(CX*2), Y0, Y1
	VPADDD   Y1, Y5, Y5

last:
	FLUSH(Y2, Y6, Y6, Y10, Y11, Y12)
	FLUSH(Y3, Y7, Y7, Y10, Y11, Y12)
	FLUSH(Y4, Y8, Y8, Y10, Y11, Y12)
	FLUSH(Y5, Y9, Y9, Y10, Y11, Y12)
	// Add up each row's four int64s: Y0 gets the four rows' sums.
	VPUNPCKLQDQ Y7, Y6, Y0
	VPUNPCKHQDQ Y7, Y6, Y1
	VPADDQ      Y1, Y0, Y0 // rows 0 and 1, twice
	VPUNPCKLQDQ Y9, Y8, Y1
	VPUNPCKHQDQ Y9, Y8, Y2
	VPADDQ      Y2, Y1, Y1 // rows 2 and 3, twice
	VPERM2I128  $0x20, Y1, Y0, Y2
	VPERM2I128  $0x31, Y1, Y0, Y3
	VPADDQ      Y3, Y2, Y0
	MOVQ        sums_base+0(FP), AX
	LEAQ        (AX)(DI*8), AX
	LEAQ        4(DI), R13
	CMPQ        R13, R12
	JHI         partial
	VMOVDQU     Y0, (AX)
	MOVQ        CX, AX
	SHLQ        $3, AX // bytes in four rows
	ADDQ        AX, R8
	MOVQ        R13, DI
	CMPQ        DI, R12
	JNE         pass
	VZEROUPPER
	RET

partial:
	MOVQ    R12, R13
	SUBQ    DI, R13 // rows left: 1, 2 or 3
	VMOVQ   X0, (AX)
	CMPQ    R13, $2
	JB      end
	VPEXTRQ $1, X0, 8(AX)
	CMPQ    R13, $3
	JB      end
	VEXTRACTI128 $1, Y0, X1
	VMOVQ   X1, 16(AX)

end:
	VZEROUPPER
	RET

short:
	// Fewer than sixteen words per row: one word at a time.
	MOVQ sums_base+0(FP), DI
	XORQ R9, R9

srow:
	XORQ AX, AX
	XORQ DX, DX

sword:
	CMPQ    DX, CX
	JEQ     sstore
	MOVWQSX (SI)(DX*2), R10
	MOVWQSX (R8)(DX*2), R11
	IMULQ   R11, R10
	ADDQ    R10, AX
	INCQ    DX
	JMP     sword

sstore:
	MOVQ AX, (DI)(R9*8)
	LEAQ (R8)(CX*2), R8
	INCQ R9
	CMPQ R9, R12
	JNE  srow

done:
	RET

generic:
	JMP ·matVecAccGo(SB)

// func vecMatAcc(sums []Acc, vin, mat []Num, k int)
//
// Sixteen columns per pass, down the rows two at a time. A step
// broadcasts the word pair vin[2p], vin[2p+1] to every int32 lane
// (VPBROADCASTD of the pair at &vin[2p]), interleaves sixteen words of
// row 2p with the same sixteen of row 2p+1, and VPMADDWD gives
// r0[j]·vin[2p] + r1[j]·vin[2p+1] for each of the sixteen columns, in
// two int32 accumulators. Every k steps, and after the last, FLUSH
// widens them into four int64 accumulators, which the pass stores once.
// An odd last row is one more step, its word paired with 0. When
// len(sums) is not a multiple of sixteen, the last pass takes the last
// sixteen columns, and stores again the exact sums of the columns it
// shares with the pass before.
TEXT ·vecMatAcc(SB), NOSPLIT, $0-80
	CMPB ·avx2(SB), $0
	JEQ  generic
	MOVQ sums_base+0(FP), DI
	MOVQ sums_len+8(FP), CX
	MOVQ vin_base+24(FP), SI
	MOVQ vin_len+32(FP), R12
	MOVQ CX, R9
	SHLQ $1, R9 // bytes per row
	CMPQ CX, $16
	JB   short
	MOVQ R12, R10
	SHRQ $1, R10 // row pairs
	VPCMPEQD Y12, Y12, Y12
	XORQ BX, BX // the pass's first column

pass:
	VPXOR Y3, Y3, Y3 // int32 sums: j = 0..3 and 8..11
	VPXOR Y4, Y4, Y4 // j = 4..7 and 12..15
	VPXOR Y8, Y8, Y8 // int64 sums: j = 0, 1 | 8, 9
	VPXOR Y9, Y9, Y9 // j = 2, 3 | 10, 11
	VPXOR Y10, Y10, Y10 // j = 4, 5 | 12, 13
	VPXOR Y11, Y11, Y11 // j = 6, 7 | 14, 15
	MOVQ  mat_base+48(FP), R8
	LEAQ  (R8)(BX*2), R8
	XORQ  DX, DX
	MOVQ  k+72(FP), R13 // steps left before the next FLUSH
	TESTQ R10, R10
	JZ    odd

pair:
	VPBROADCASTD (SI)(DX*4), Y6
	VMOVDQU      (R8), Y0
	VMOVDQU      (R8)(R9*1), Y1
	VPUNPCKHWD   Y1, Y0, Y2 // r0[j], r1[j] for j = 4..7 and 12..15
	VPUNPCKLWD   Y1, Y0, Y0 // the same for j = 0..3 and 8..11
	VPMADDWD     Y6, Y0, Y0
	VPMADDWD     Y6, Y2, Y2
	VPADDD       Y0, Y3, Y3
	VPADDD       Y2, Y4, Y4
	LEAQ         (R8)(R9*2), R8
	INCQ         DX
	DECQ         R13
	JNZ          next
	FLUSH(Y3, Y8, Y9, Y5, Y7, Y12)
	FLUSH(Y4, Y10, Y11, Y5, Y7, Y12)
	MOVQ         k+72(FP), R13

next:
	CMPQ DX, R10
	JNE  pair

odd:
	// The pair loop leaves at least one step before the next FLUSH.
	TESTQ        $1, R12
	JZ           last
	MOVWLZX      -2(SI)(R12*2), AX // vin's last word, paired with 0
	VMOVD        AX, X6
	VPBROADCASTD X6, Y6
	VMOVDQU      (R8), Y0
	VPUNPCKHWD   Y0, Y0, Y2
	VPUNPCKLWD   Y0, Y0, Y0
	VPMADDWD     Y6, Y0, Y0
	VPMADDWD     Y6, Y2, Y2
	VPADDD       Y0, Y3, Y3
	VPADDD       Y2, Y4, Y4

last:
	FLUSH(Y3, Y8, Y9, Y5, Y7, Y12)
	FLUSH(Y4, Y10, Y11, Y5, Y7, Y12)
	VPERM2I128 $0x20, Y9, Y8, Y0 // j = 0..3
	VPERM2I128 $0x20, Y11, Y10, Y1 // j = 4..7
	VPERM2I128 $0x31, Y9, Y8, Y2 // j = 8..11
	VPERM2I128 $0x31, Y11, Y10, Y3 // j = 12..15
	VMOVDQU    Y0, (DI)(BX*8)
	VMOVDQU    Y1, 32(DI)(BX*8)
	VMOVDQU    Y2, 64(DI)(BX*8)
	VMOVDQU    Y3, 96(DI)(BX*8)
	ADDQ       $16, BX
	CMPQ       BX, CX
	JEQ        done
	LEAQ       16(BX), AX
	CMPQ       AX, CX
	JLS        pass
	MOVQ       CX, BX
	SUBQ       $16, BX // the last sixteen columns
	JMP        pass

done:
	VZEROUPPER
	RET

short:
	// Fewer than sixteen columns: one word at a time, column by column.
	XORQ BX, BX

scol:
	CMPQ BX, CX
	JEQ  sdone
	MOVQ mat_base+48(FP), R8
	LEAQ (R8)(BX*2), R8
	XORQ AX, AX
	XORQ DX, DX

srow:
	CMPQ    DX, R12
	JEQ     sstore
	MOVWQSX (SI)(DX*2), R10
	MOVWQSX (R8), R11
	IMULQ   R11, R10
	ADDQ    R10, AX
	ADDQ    R9, R8
	INCQ    DX
	JMP     srow

sstore:
	MOVQ AX, (DI)(BX*8)
	INCQ BX
	JMP  scol

sdone:
	RET

generic:
	JMP ·vecMatAccGo(SB)

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

package fixed

// The functions below are the AVX2 forms of the Go loops in kernels.go,
// which are their contract: the same exact results, for every input.
// Each takes sixteen words per step, then one eight-word step and one
// word per step for the rest (kernels_amd64.s).
//
// avx2 is set once, at package initialization, by a CPUID and XGETBV
// probe: the CPU must report AVX2, AVX and OSXSAVE, and the OS must
// save the XMM and YMM registers. Each function tests it on entry and,
// when it is false, jumps to its Go loop, so amd64 hosts without AVX2
// run the loops that every other GOARCH runs.
var avx2 = hasAVX2()

// hasAVX2 reports whether the CPU and the OS support AVX2.
func hasAVX2() bool

// dotAcc returns the exact sum of a[i]·b[i] over i < len(a). b must be
// at least as long as a.
//
//go:noescape
func dotAcc(a, b []Num) Acc

// axpy2Acc adds r0[j]·v0 + r1[j]·v1 into acc[j] for every j < len(acc).
// r0 and r1 must be at least as long as acc.
//
//go:noescape
func axpy2Acc(acc []Acc, r0, r1 []Num, v0, v1 Num)

// vadd, vsub, vmul and vmax set out[i] to Add, Sub, Mul or the larger
// of a[i] and b[i] for every i < len(out); vaddScalar and vmulScalar
// set it to Add or Mul of a[i] and s. a and b must be at least as long
// as out, and out may be a or b.

//go:noescape
func vadd(out, a, b []Num)

//go:noescape
func vsub(out, a, b []Num)

//go:noescape
func vmul(out, a, b []Num)

//go:noescape
func vmax(out, a, b []Num)

//go:noescape
func vaddScalar(out, a []Num, s Num)

//go:noescape
func vmulScalar(out, a []Num, s Num)

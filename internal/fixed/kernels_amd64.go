package fixed

// The functions below are the AVX2 forms of the Go loops in kernels.go,
// which are their contract: the same exact results, for every input.
// How each one steps through its operands is described with it in
// kernels_amd64.s.
//
// avx2 is set once, at package initialization, by a CPUID and XGETBV
// probe: the CPU must report AVX2, AVX and OSXSAVE, and the OS must
// save the XMM and YMM registers. Each function tests it on entry and,
// when it is false, jumps to its Go loop, so amd64 hosts without AVX2
// run the loops that every other GOARCH runs.
var avx2 = hasAVX2()

// hasAVX2 reports whether the CPU and the OS support AVX2.
func hasAVX2() bool

// maxAbs returns the largest |v[i]|, counting Min as 32768, and 0 for
// an empty v.
//
//go:noescape
func maxAbs(v []Num) int

// matVecAcc sets sums[i] to the exact sum of mat[i·n+j]·vin[j] over
// j < n = len(vin), for every i < len(sums). mat must hold at least
// len(sums)·len(vin) words, and k must be at least 1 and at most
// widenSteps(maxAbs(vin)).
//
//go:noescape
func matVecAcc(sums []Acc, mat, vin []Num, k int)

// vecMatAcc sets sums[j] to the exact sum of vin[i]·mat[i·n+j] over
// i < len(vin), for every j < n = len(sums). mat must hold at least
// len(vin)·len(sums) words, and k must be at least 1 and at most
// widenSteps(maxAbs(vin)).
//
//go:noescape
func vecMatAcc(sums []Acc, vin, mat []Num, k int)

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

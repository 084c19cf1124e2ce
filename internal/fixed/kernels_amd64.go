package fixed

// The functions below are the SSE2 forms of the loops in
// kernels_other.go, which are their contract: the same exact results,
// for every input. SSE2 is part of the amd64 baseline, so they need no
// CPU detection.

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

package fixed

// dotAcc and axpy2Acc are the SSE2 forms of the loops in
// kernels_other.go, which are their contract: the same exact sums, for
// every input. SSE2 is part of the amd64 baseline, so they need no CPU
// detection.

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

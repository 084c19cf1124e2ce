//go:build !amd64

package fixed

// dotAcc returns the exact sum of a[i]·b[i] over i < len(a). b must be
// at least as long as a.
func dotAcc(a, b []Num) Acc {
	b = b[:len(a)]
	var sum Acc
	for i, x := range a {
		sum += MulAcc(x, b[i])
	}
	return sum
}

// axpy2Acc adds r0[j]·v0 + r1[j]·v1 into acc[j] for every j < len(acc).
// r0 and r1 must be at least as long as acc.
func axpy2Acc(acc []Acc, r0, r1 []Num, v0, v1 Num) {
	r0, r1 = r0[:len(acc)], r1[:len(acc)]
	for j := range acc {
		acc[j] += MulAcc(r0[j], v0) + MulAcc(r1[j], v1)
	}
}

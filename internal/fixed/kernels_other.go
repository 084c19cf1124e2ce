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

// vadd, vsub, vmul and vmax set out[i] to Add, Sub, Mul or the larger
// of a[i] and b[i] for every i < len(out); vaddScalar and vmulScalar
// set it to Add or Mul of a[i] and s. a and b must be at least as long
// as out, and out may be a or b.

func vadd(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Add(a[i], b[i])
	}
}

func vsub(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Sub(a[i], b[i])
	}
}

func vmul(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Mul(a[i], b[i])
	}
}

func vmax(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = max(a[i], b[i])
	}
}

func vaddScalar(out, a []Num, s Num) {
	a = a[:len(out)]
	for i := range out {
		out[i] = Add(a[i], s)
	}
}

func vmulScalar(out, a []Num, s Num) {
	a = a[:len(out)]
	for i := range out {
		out[i] = Mul(a[i], s)
	}
}

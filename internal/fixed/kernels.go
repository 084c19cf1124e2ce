package fixed

// The Go loops below are the contract of the eight kernel primitives
// (dotAcc, axpy2Acc, vadd, vsub, vmul, vmax, vaddScalar, vmulScalar):
// every form must compute exactly what its loop computes, for every
// input. They compile on every GOARCH. On an amd64 host with AVX2 the
// primitives run the assembly in kernels_amd64.s instead; everywhere
// else they run these loops, and on amd64 the loops are the oracle the
// assembly is tested against.

// KernelForm names the form the kernel primitives run on this host:
// "avx2" for the amd64 assembly, "go" for the Go loops. The form is
// chosen once, when the package is initialized.
func KernelForm() string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// dotAccGo returns the exact sum of a[i]·b[i] over i < len(a). b must
// be at least as long as a.
func dotAccGo(a, b []Num) Acc {
	b = b[:len(a)]
	var sum Acc
	for i, x := range a {
		sum += MulAcc(x, b[i])
	}
	return sum
}

// axpy2AccGo adds r0[j]·v0 + r1[j]·v1 into acc[j] for every
// j < len(acc). r0 and r1 must be at least as long as acc.
func axpy2AccGo(acc []Acc, r0, r1 []Num, v0, v1 Num) {
	r0, r1 = r0[:len(acc)], r1[:len(acc)]
	for j := range acc {
		acc[j] += MulAcc(r0[j], v0) + MulAcc(r1[j], v1)
	}
}

// vaddGo, vsubGo, vmulGo and vmaxGo set out[i] to Add, Sub, Mul or the
// larger of a[i] and b[i] for every i < len(out); vaddScalarGo and
// vmulScalarGo set it to Add or Mul of a[i] and s. a and b must be at
// least as long as out, and out may be a or b.

func vaddGo(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Add(a[i], b[i])
	}
}

func vsubGo(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Sub(a[i], b[i])
	}
}

func vmulGo(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = Mul(a[i], b[i])
	}
}

func vmaxGo(out, a, b []Num) {
	a, b = a[:len(out)], b[:len(out)]
	for i := range out {
		out[i] = max(a[i], b[i])
	}
}

func vaddScalarGo(out, a []Num, s Num) {
	a = a[:len(out)]
	for i := range out {
		out[i] = Add(a[i], s)
	}
}

func vmulScalarGo(out, a []Num, s Num) {
	a = a[:len(out)]
	for i := range out {
		out[i] = Mul(a[i], s)
	}
}

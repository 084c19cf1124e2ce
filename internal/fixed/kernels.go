package fixed

import "math"

// The Go loops below are the contract of the nine kernel primitives
// (maxAbs, matVecAcc, vecMatAcc, vadd, vsub, vmul, vmax, vaddScalar,
// vmulScalar): every form must compute exactly what its loop computes,
// for every input. They compile on every GOARCH. On an amd64 host with
// AVX2 the primitives run the assembly in kernels_amd64.s instead;
// everywhere else they run these loops, and on amd64 the loops are the
// oracle the assembly is tested against.

// KernelForm names the form the kernel primitives run on this host:
// "avx2" for the amd64 assembly, "go" for the Go loops. The form is
// chosen once, when the package is initialized.
func KernelForm() string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// maxAbsGo returns the largest |v[i]|, counting Min as 32768, and 0
// for an empty v.
func maxAbsGo(v []Num) int {
	b := 0
	for _, x := range v {
		b = max(b, int(x), -int(x))
	}
	return b
}

// widenSteps returns how many VPMADDWD steps the matrix kernels may add
// in int32 lanes before they widen them, when every word of the vector
// side is at most b in magnitude (maxAbs). A lane is the sum of two
// products of a matrix word (at most 32768 in magnitude) and a vector
// word, so it is at most 2^16·b in magnitude, and K such lanes stay
// within ±(2^31-1). With b = 0 every lane is 0 and no count can wrap.
// The result is at least 1: one step's lane can read 2^31, which
// WIDEN (kernels_amd64.s) undoes.
func widenSteps(b int) int {
	if b == 0 {
		return math.MaxInt32
	}
	return max(1, (1<<31-1)/(b<<16))
}

// matVecAccGo sets sums[i] to the exact sum of mat[i·n+j]·vin[j] over
// j < n = len(vin), for every i < len(sums). mat must hold at least
// len(sums)·len(vin) words. The assembly takes k, the steps it may add
// before it widens, which must be at least 1 and at most
// widenSteps(maxAbs(vin)); the loop needs none.
func matVecAccGo(sums []Acc, mat, vin []Num, _ int) {
	cols := len(vin)
	for i := range sums {
		var sum Acc
		for j, x := range mat[i*cols : (i+1)*cols] {
			sum += MulAcc(x, vin[j])
		}
		sums[i] = sum
	}
}

// vecMatAccGo sets sums[j] to the exact sum of vin[i]·mat[i·n+j] over
// i < len(vin), for every j < n = len(sums). mat must hold at least
// len(vin)·len(sums) words, and k is matVecAccGo's.
func vecMatAccGo(sums []Acc, vin, mat []Num, _ int) {
	cols := len(sums)
	clear(sums)
	for i, v := range vin {
		for j, x := range mat[i*cols : (i+1)*cols] {
			sums[j] += MulAcc(v, x)
		}
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

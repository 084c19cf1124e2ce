package fixed

import (
	"math/rand"
	"testing"
)

// guard is the value written past the end of every output in
// TestAVX2KernelsMatchGoLoops: a kernel that stores past len(out)
// changes it.
const guard Num = 0x5a5a

// guarded returns n zero words followed by eight guard words, sliced
// to the first n.
func guarded(n int) []Num {
	s := make([]Num, n+8)
	for i := n; i < len(s); i++ {
		s[i] = guard
	}
	return s[:n]
}

// checkGuard fails the test if a word past len(s) lost its guard value.
func checkGuard(t *testing.T, name string, s []Num) {
	t.Helper()
	for i, v := range s[len(s):cap(s)] {
		if v != guard {
			t.Fatalf("%s n=%d: word %d past the end = %d, want the guard %d", name, len(s), i, v, guard)
		}
	}
}

// TestAVX2KernelsMatchGoLoops holds each AVX2 primitive, called
// directly, to its Go loop in kernels.go at every length from 0 to 64,
// which covers every tail after zero to four sixteen-word steps, with
// and without the eight-word step. Inputs are random, all-Min, all-Max,
// mixed, and vectors whose largest magnitude sits at each boundary of
// the matrix kernels' widening interval (boundVec). The matrix kernels
// run over 0 to 9 rows, at the largest interval widenSteps allows and
// at 1; the element-wise kernels run into a separate output and in
// place over either operand, and no kernel may store past its output.
func TestAVX2KernelsMatchGoLoops(t *testing.T) {
	if !avx2 {
		t.Skip("no AVX2 on this host: the primitives run their Go loops")
	}
	rng := rand.New(rand.NewSource(5))
	random := func() Num { return Num(rng.Intn(1 << 16)) }
	mins := func() Num { return Min }
	maxes := func() Num { return Max }
	mixed := func() Num {
		switch rng.Intn(4) {
		case 0:
			return Min
		case 1:
			return Max
		}
		return Num(rng.Intn(1 << 16))
	}
	for n := 0; n <= 64; n++ {
		for _, b := range boundaries {
			v := boundVec(rng, n, b)
			if got, want := maxAbs(v), maxAbsGo(v); got != want {
				t.Fatalf("maxAbs n=%d: %d, Go loop %d (v=%v)", n, got, want, v)
			}
			for rows := 0; rows <= 9; rows++ {
				for _, gen := range []func() Num{mixed, mins} {
					checkMatrixPrimitives(t, rng, rows, n, fill(rows*n, gen), v, boundVec(rng, rows, b))
				}
			}
		}
	}
	vec := []struct {
		name      string
		avx2, ref func(out, a, b []Num)
	}{
		{"vadd", vadd, vaddGo},
		{"vsub", vsub, vsubGo},
		{"vmul", vmul, vmulGo},
		{"vmax", vmax, vmaxGo},
	}
	scalar := []struct {
		name      string
		avx2, ref func(out, a []Num, s Num)
	}{
		{"vaddScalar", vaddScalar, vaddScalarGo},
		{"vmulScalar", vmulScalar, vmulScalarGo},
	}
	for n := 0; n <= 64; n++ {
		for _, gen := range []func() Num{random, mins, maxes, mixed} {
			a, b := fill(n, gen), fill(n, gen)
			s := gen()

			for _, k := range vec {
				want := guarded(n)
				k.ref(want, a, b)
				out := guarded(n)
				k.avx2(out, a, b)
				inA, inB := guarded(n), guarded(n)
				copy(inA, a)
				copy(inB, b)
				k.avx2(inA, inA, b)
				k.avx2(inB, a, inB)
				for _, got := range [][]Num{out, inA, inB} {
					checkGuard(t, k.name, got)
				}
				for i := range want {
					if out[i] != want[i] || inA[i] != want[i] || inB[i] != want[i] {
						t.Fatalf("%s n=%d: out[%d] = %d, in place over a %d, over b %d; Go loop op(%d, %d) = %d",
							k.name, n, i, out[i], inA[i], inB[i], a[i], b[i], want[i])
					}
				}
			}
			for _, k := range scalar {
				want := guarded(n)
				k.ref(want, a, s)
				out := guarded(n)
				k.avx2(out, a, s)
				inA := guarded(n)
				copy(inA, a)
				k.avx2(inA, inA, s)
				checkGuard(t, k.name, out)
				checkGuard(t, k.name, inA)
				for i := range want {
					if out[i] != want[i] || inA[i] != want[i] {
						t.Fatalf("%s n=%d: out[%d] = %d, in place %d; Go loop op(%d, %d) = %d",
							k.name, n, i, out[i], inA[i], a[i], s, want[i])
					}
				}
			}
		}
	}
}

// checkMatrixPrimitives holds matVecAcc and vecMatAcc, called directly,
// to their Go loops on one rows x cols matrix, the column-length vector
// colVec and the row-length vector rowVec, at k = 1 and at the largest
// k widenSteps allows. Four sums past the ones a call sets must keep
// their values.
func checkMatrixPrimitives(t *testing.T, rng *rand.Rand, rows, cols int, mat, colVec, rowVec []Num) {
	t.Helper()
	dirty := func(n int) []Acc {
		s := make([]Acc, n+4)
		for j := range s {
			s[j] = Acc(rng.Int63n(1<<40) - 1<<39)
		}
		return s
	}
	for _, k := range []int{1, widenSteps(maxAbsGo(colVec))} {
		got := dirty(rows)
		want := append([]Acc(nil), got...)
		matVecAcc(got[:rows], mat, colVec, k)
		matVecAccGo(want[:rows], mat, colVec, k)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("matVecAcc %dx%d k=%d: sums[%d] = %d, Go loop %d (vin=%v)", rows, cols, k, i, got[i], want[i], colVec)
			}
		}
	}
	for _, k := range []int{1, widenSteps(maxAbsGo(rowVec))} {
		got := dirty(cols)
		want := append([]Acc(nil), got...)
		vecMatAcc(got[:cols], rowVec, mat, k)
		vecMatAccGo(want[:cols], rowVec, mat, k)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("vecMatAcc %dx%d k=%d: sums[%d] = %d, Go loop %d (vin=%v)", rows, cols, k, j, got[j], want[j], rowVec)
			}
		}
	}
}

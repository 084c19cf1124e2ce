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
// and without the eight-word step. Inputs are random, all-Min, all-Max
// and mixed; the element-wise kernels run into a separate output and in
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
			s, v0, v1 := gen(), gen(), gen()

			if got, want := dotAcc(a, b), dotAccGo(a, b); got != want {
				t.Fatalf("dotAcc n=%d: %d, Go loop %d (a=%v b=%v)", n, got, want, a, b)
			}

			// Four more accumulators past the n updated ones must keep
			// their values.
			acc := make([]Acc, n+4)
			for j := range acc {
				acc[j] = Acc(rng.Int63n(1<<40) - 1<<39)
			}
			want := append([]Acc(nil), acc...)
			axpy2Acc(acc[:n], a, b, v0, v1)
			axpy2AccGo(want[:n], a, b, v0, v1)
			for j := range want {
				if acc[j] != want[j] {
					t.Fatalf("axpy2Acc n=%d: acc[%d] = %d, Go loop %d (v0=%d v1=%d)", n, j, acc[j], want[j], v0, v1)
				}
			}

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

package fixed

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// elementwise lists the element-wise kernels with the scalar operation
// each must match. A two-vector kernel is vec, a kernel against one
// broadcast scalar is scalar; the other is nil.
var elementwise = []struct {
	name   string
	op     func(x, y Num) Num
	vec    func(out, a, b []Num)
	scalar func(out, a []Num, s Num)
}{
	{name: "VecAdd", op: Add, vec: VecAdd},
	{name: "VecSub", op: Sub, vec: VecSub},
	{name: "VecMul", op: Mul, vec: VecMul},
	{name: "VecMax", op: vgtmSelect, vec: VecMax},
	{name: "VecAddScalar", op: Add, scalar: VecAddScalar},
	{name: "VecMulScalar", op: Mul, scalar: VecMulScalar},
}

// vgtmSelect is VGTM's select of one element, the oracle for VecMax.
func vgtmSelect(x, y Num) Num {
	if x > y {
		return x
	}
	return y
}

// checkElementwise runs every kernel on a with b (two-vector kernels) or
// s (scalar kernels), into a fresh out and in place over a copy of a,
// and compares each element with the kernel's scalar operation.
func checkElementwise(t *testing.T, a, b []Num, s Num) {
	t.Helper()
	for _, k := range elementwise {
		want := make([]Num, len(a))
		for i := range a {
			if k.vec != nil {
				want[i] = k.op(a[i], b[i])
			} else {
				want[i] = k.op(a[i], s)
			}
		}
		out := make([]Num, len(a))
		alias := append([]Num(nil), a...)
		if k.vec != nil {
			k.vec(out, a, b)
			k.vec(alias, alias, b)
		} else {
			k.scalar(out, a, s)
			k.scalar(alias, alias, s)
		}
		for i := range want {
			if out[i] != want[i] || alias[i] != want[i] {
				y := s
				if k.vec != nil {
					y = b[i]
				}
				t.Fatalf("%s n=%d: out[%d] = %d, in place %d, scalar op(%d, %d) = %d",
					k.name, len(a), i, out[i], alias[i], a[i], y, want[i])
			}
		}
	}
}

// TestElementwiseKernelsMatchScalarLoops holds every element-wise kernel
// to its scalar loop at every length from 0 to 40, which covers each
// tail length after zero to five eight-word steps, on random, all-Min,
// all-Max and mixed inputs, into a separate output and in place.
func TestElementwiseKernelsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
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
	for n := 0; n <= 40; n++ {
		for _, gen := range []func() Num{random, mins, maxes, mixed} {
			checkElementwise(t, fill(n, gen), fill(n, gen), gen())
		}
	}
}

// TestElementwiseKernelsAllValues runs every one of the 65,536 values
// against operands at and around the saturation and rounding edges, on
// each side of the two-vector kernels.
func TestElementwiseKernelsAllValues(t *testing.T) {
	all := make([]Num, 1<<16)
	for i := range all {
		all[i] = Num(i)
	}
	for _, c := range []Num{Min, -257, -256, -129, -128, -1, 0, 1, 127, 128, 255, 256, Max} {
		consts := fill(len(all), func() Num { return c })
		checkElementwise(t, all, consts, c)
		checkElementwise(t, consts, all, c)
	}
}

// TestElementwiseKernelsRejectShortInputs checks that the wrappers panic
// rather than let the assembly read past an operand shorter than out.
func TestElementwiseKernelsRejectShortInputs(t *testing.T) {
	out, short, full := make([]Num, 9), make([]Num, 8), make([]Num, 9)
	for _, k := range elementwise {
		calls := []func(){func() { k.scalar(out, short, 1) }}
		if k.vec != nil {
			calls = []func(){func() { k.vec(out, short, full) }, func() { k.vec(out, full, short) }}
		}
		for _, call := range calls {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic with an operand shorter than out", k.name)
					}
				}()
				call()
			}()
		}
	}
}

// FuzzElementwiseKernels checks every element-wise kernel against its
// scalar operation on arbitrary operands: data is split in two halves
// read as little-endian Nums, and s is the broadcast scalar.
func FuzzElementwiseKernels(f *testing.F) {
	f.Add(int16(0), []byte{})
	f.Add(int16(math.MaxInt16), []byte{0xff, 0x7f, 0x00, 0x80, 0x01, 0x00, 0x80, 0x00})
	f.Add(int16(math.MinInt16), []byte{0x00, 0x80, 0x00, 0x80, 0xff, 0xff, 0x00, 0x01})
	f.Add(int16(-129), make([]byte, 68))
	f.Fuzz(func(t *testing.T, s int16, data []byte) {
		n := len(data) / 4
		a, b := make([]Num, n), make([]Num, n)
		for i := range a {
			a[i] = Num(binary.LittleEndian.Uint16(data[2*i:]))
			b[i] = Num(binary.LittleEndian.Uint16(data[2*(n+i):]))
		}
		checkElementwise(t, a, b, Num(s))
	})
}

// TestExpMatchesFloatFormula holds the table-driven Exp to the rounded
// float64 formula on all 65,536 inputs; the reference interpreter calls
// Exp too, so this is its oracle.
func TestExpMatchesFloatFormula(t *testing.T) {
	for i := 0; i < 1<<16; i++ {
		n := Num(i)
		if got, want := Exp(n), FromFloat(math.Exp(n.Float())); got != want {
			t.Fatalf("Exp(%d) = %d, float formula %d", n, got, want)
		}
	}
}

// BenchmarkVecMulScalarKernel times MMS on one Autoencoder weight tile
// (200×320 = 64,000 elements).
func BenchmarkVecMulScalarKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a := fill(64000, func() Num { return Num(rng.Intn(1 << 16)) })
	out := make([]Num, len(a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMulScalar(out, a, 3)
	}
}

package fixed

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// scalarSum is the exact sum of a[i]·b[i], one MulAcc at a time. It is
// the oracle for dotAcc, so it must not call it.
func scalarSum(a, b []Num) Acc {
	var sum Acc
	for i := range a {
		sum += MulAcc(a[i], b[i])
	}
	return sum
}

// oneRowMatVec is the one-row MMV loop: a scalar sum per row. It is the
// oracle MatVec must match bit for bit.
func oneRowMatVec(out, mat, vin []Num) {
	cols := len(vin)
	for i := range out {
		out[i] = AccSat(scalarSum(mat[i*cols:(i+1)*cols], vin))
	}
}

// oneRowVecMat is the one-row VMM sweep: every matrix row is added into
// the accumulators on its own pass.
func oneRowVecMat(out, vin, mat []Num) {
	cols := len(out)
	acc := make([]Acc, cols)
	for i, v := range vin {
		for j, mv := range mat[i*cols : (i+1)*cols] {
			acc[j] += MulAcc(v, mv)
		}
	}
	for j, sum := range acc {
		out[j] = AccSat(sum)
	}
}

// fill returns n values drawn by gen.
func fill(n int, gen func() Num) []Num {
	s := make([]Num, n)
	for i := range s {
		s[i] = gen()
	}
	return s
}

// checkKernels compares MatVec and VecMat against the one-row oracles on
// one matrix of rows x cols and the matching input vectors, and returns
// the MatVec output so callers can assert on it.
func checkKernels(t *testing.T, rows, cols int, mat, colVec, rowVec []Num) []Num {
	t.Helper()
	got, want := make([]Num, rows), make([]Num, rows)
	MatVec(got, mat, colVec)
	oneRowMatVec(want, mat, colVec)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MatVec %dx%d: out[%d] = %d, one-row oracle %d", rows, cols, i, got[i], want[i])
		}
	}
	// A dirty accumulator buffer longer than needed must not leak in.
	acc := make([]Acc, cols+3)
	for i := range acc {
		acc[i] = 77
	}
	gotT, wantT := make([]Num, cols), make([]Num, cols)
	VecMat(gotT, rowVec, mat, acc)
	oneRowVecMat(wantT, rowVec, mat)
	for j := range wantT {
		if gotT[j] != wantT[j] {
			t.Fatalf("VecMat %dx%d: out[%d] = %d, one-row oracle %d", rows, cols, j, gotT[j], wantT[j])
		}
	}
	return got
}

// TestBlockedKernelsMatchOneRowOracles covers odd and even row counts,
// empty, short and Table III-wide rows, widths on each side of the
// eight-lane blocks, inputs that drive AccSat into saturation in both
// directions, and all-Min operands, whose pair sums wrap int32.
func TestBlockedKernelsMatchOneRowOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []Num{Max, -Max, Min, 0, 1, -1}
	random := func() Num {
		if rng.Intn(4) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return Num(rng.Intn(1 << 16))
	}
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 14} {
		for _, cols := range []int{0, 1, 3, 7, 8, 9, 15, 16, 17, 500} {
			t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
				checkKernels(t, rows, cols, fill(rows*cols, random), fill(cols, random), fill(rows, random))

				maxes := func() Num { return Max }
				mins := func() Num { return Min }
				pos := checkKernels(t, rows, cols, fill(rows*cols, maxes), fill(cols, maxes), fill(rows, maxes))
				neg := checkKernels(t, rows, cols, fill(rows*cols, mins), fill(cols, maxes), fill(rows, maxes))
				minMin := checkKernels(t, rows, cols, fill(rows*cols, mins), fill(cols, mins), fill(rows, mins))
				if cols >= 3 {
					for i := range pos {
						if pos[i] != Max || neg[i] != Min || minMin[i] != Max {
							t.Fatalf("row %d: got %d, %d and %d, want saturation to %d, %d and %d",
								i, pos[i], neg[i], minMin[i], Max, Min, Max)
						}
					}
				}
			})
		}
	}
}

// TestPrimitivesMatchScalarLoops holds dotAcc, Dot and axpy2Acc to
// scalar loops at every length from 0 to 40, which covers each tail
// length after zero to five eight-lane blocks. It compares raw sums, so
// a lane miscounted anywhere shows even where AccSat would saturate.
func TestPrimitivesMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	random := func() Num { return Num(rng.Intn(1 << 16)) }
	mins := func() Num { return Min }
	alternate := func() Num {
		if rng.Intn(2) == 0 {
			return Min
		}
		return Max
	}
	for n := 0; n <= 40; n++ {
		for _, gen := range []func() Num{random, mins, alternate} {
			a, b := fill(n, gen), fill(n, gen)
			want := scalarSum(a, b)
			if got := dotAcc(a, b); got != want {
				t.Fatalf("n=%d: dotAcc = %d, scalar sum %d (a=%v b=%v)", n, got, want, a, b)
			}
			if got := Dot(a, b); got != AccSat(want) {
				t.Fatalf("n=%d: Dot = %d, scalar %d", n, got, AccSat(want))
			}

			v0, v1 := gen(), gen()
			acc := make([]Acc, n)
			wantAcc := make([]Acc, n)
			for j := range acc {
				acc[j] = Acc(rng.Int63n(1<<40) - 1<<39)
				wantAcc[j] = acc[j] + MulAcc(a[j], v0) + MulAcc(b[j], v1)
			}
			axpy2Acc(acc, a, b, v0, v1)
			for j := range acc {
				if acc[j] != wantAcc[j] {
					t.Fatalf("n=%d: axpy2Acc acc[%d] = %d, scalar %d (v0=%d v1=%d)", n, j, acc[j], wantAcc[j], v0, v1)
				}
			}
		}
	}
}

// FuzzBlockedKernels checks MatVec and VecMat against the one-row oracles
// on arbitrary shapes and contents: data is read as little-endian Nums,
// wrapping around, to fill the matrix and both input vectors.
func FuzzBlockedKernels(f *testing.F) {
	f.Add(uint8(0), uint8(0), []byte{})
	f.Add(uint8(5), uint8(3), []byte{0xff, 0x7f, 0x00, 0x80, 0x01, 0x00})
	f.Add(uint8(4), uint8(17), []byte{0x00, 0x80})
	f.Add(uint8(7), uint8(1), []byte{0x12, 0x34, 0x56})
	f.Fuzz(func(t *testing.T, rows, cols uint8, data []byte) {
		r, c := int(rows)%33, int(cols)%65
		k := 0
		next := func() Num {
			k++
			if len(data) < 2 {
				return Num(k)
			}
			off := (2 * k) % (len(data) - 1)
			return Num(binary.LittleEndian.Uint16(data[off:]))
		}
		checkKernels(t, r, c, fill(r*c, next), fill(c, next), fill(r, next))
	})
}

func BenchmarkMatVecKernel(b *testing.B) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	mat := fill(n*n, func() Num { return Num(rng.Intn(1 << 16)) })
	vin := fill(n, func() Num { return Num(rng.Intn(1 << 16)) })
	out := make([]Num, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatVec(out, mat, vin)
	}
}

func BenchmarkVecMatKernel(b *testing.B) {
	const n = 500
	rng := rand.New(rand.NewSource(1))
	mat := fill(n*n, func() Num { return Num(rng.Intn(1 << 16)) })
	vin := fill(n, func() Num { return Num(rng.Intn(1 << 16)) })
	out, acc := make([]Num, n), make([]Acc, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VecMat(out, vin, mat, acc)
	}
}

package fixed

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// scalarSum is the exact sum of a[i]·b[i], one MulAcc at a time. It is
// the oracle for the matrix kernels, so it must not call them.
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

// boundaries are vector bounds (maxAbs) at each edge of the matrix
// kernels' widening interval: widenSteps is unbounded at b = 0, 32767
// at b = 1, 127 at b = 256 (the Q8.8 range the programs run in), 2 at
// b = 16383 and 1 from b = 16384 up; only Min reaches 32768.
var boundaries = []int{0, 1, 256, 16383, 16384, 32767, 32768}

// boundVec returns n words whose largest magnitude is b when n > 0:
// random words within ±min(b, 256) and one word of magnitude b (Min for
// b = 32768) at a random place, as a faulted Q8.8 vector would be.
func boundVec(rng *rand.Rand, n, b int) []Num {
	spread := min(b, 256)
	v := make([]Num, n)
	for i := range v {
		v[i] = Num(rng.Intn(2*spread+1) - spread)
	}
	if n > 0 {
		w := b
		if rng.Intn(2) == 0 || b == 32768 {
			w = -b
		}
		v[rng.Intn(n)] = Num(w)
	}
	return v
}

// TestBlockedKernelsMatchOneRowOracles covers 0 to 9 rows and every
// length from 0 to 64 (each tail after zero to four sixteen-word steps,
// with and without the masked step), plus 13 and 14 rows and Table
// III-wide rows; inputs that drive AccSat into saturation in both
// directions; all-Min operands, whose pair sums wrap int32; and input
// vectors at each widening boundary (boundVec).
func TestBlockedKernelsMatchOneRowOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	extremes := []Num{Max, -Max, Min, 0, 1, -1}
	random := func() Num {
		if rng.Intn(4) == 0 {
			return extremes[rng.Intn(len(extremes))]
		}
		return Num(rng.Intn(1 << 16))
	}
	rowCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 14}
	lengths := []int{500}
	for n := 0; n <= 64; n++ {
		lengths = append(lengths, n)
	}
	for _, rows := range rowCounts {
		for _, cols := range lengths {
			t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
				checkKernels(t, rows, cols, fill(rows*cols, random), fill(cols, random), fill(rows, random))
				for _, b := range boundaries {
					checkKernels(t, rows, cols, fill(rows*cols, random), boundVec(rng, cols, b), boundVec(rng, rows, b))
				}

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

// TestPrimitivesMatchScalarLoops holds maxAbs, matVecAcc over one and
// five rows, Dot and vecMatAcc over two rows to scalar loops at every
// length from 0 to 40, at the k widenSteps gives. It compares raw sums,
// so a lane miscounted anywhere shows even where AccSat would saturate.
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
	q88 := func() Num { return Num(rng.Intn(513) - 256) }
	for n := 0; n <= 40; n++ {
		for _, gen := range []func() Num{random, mins, alternate, q88} {
			a, b := fill(n, gen), fill(n, gen)
			wantB := 0
			for _, x := range b {
				wantB = max(wantB, int(x), -int(x))
			}
			if got := maxAbs(b); got != wantB {
				t.Fatalf("n=%d: maxAbs = %d, scalar %d (b=%v)", n, got, wantB, b)
			}
			k := widenSteps(wantB)

			want := scalarSum(a, b)
			var one [1]Acc
			matVecAcc(one[:], a, b, k)
			if one[0] != want {
				t.Fatalf("n=%d: one-row matVecAcc = %d, scalar sum %d (a=%v b=%v)", n, one[0], want, a, b)
			}
			if got := Dot(a, b); got != AccSat(want) {
				t.Fatalf("n=%d: Dot = %d, scalar %d", n, got, AccSat(want))
			}
			mat := fill(5*n, gen)
			var five [5]Acc
			matVecAcc(five[:], mat, b, k)
			for i, got := range five {
				if w := scalarSum(mat[i*n:(i+1)*n], b); got != w {
					t.Fatalf("n=%d: five-row matVecAcc sums[%d] = %d, scalar %d", n, i, got, w)
				}
			}

			v := [2]Num{gen(), gen()}
			sums := make([]Acc, n)
			vecMatAcc(sums, v[:], append(append([]Num(nil), a...), b...), widenSteps(maxAbs(v[:])))
			for j := range sums {
				if w := MulAcc(a[j], v[0]) + MulAcc(b[j], v[1]); sums[j] != w {
					t.Fatalf("n=%d: two-row vecMatAcc sums[%d] = %d, scalar %d (v=%v)", n, j, sums[j], w, v)
				}
			}
		}
	}
}

// TestMatrixKernelsWidenAtTheBound checks widenSteps against the int32
// range at every boundary, then runs MatVec and VecMat where each step
// adds the most a lane can hold: an all-Min matrix against a vector of
// b (all Min for b = 32768), and of -b, for k steps and k+1 of them,
// where k = widenSteps(b). Each sum is then right at the edge of what k
// steps may add, so a k one larger than the bound shows. On the AVX2
// form the test also calls the kernels with k+1 and requires a wrong
// sum, which proves the inputs sit at the edge.
func TestMatrixKernelsWidenAtTheBound(t *testing.T) {
	for _, b := range boundaries {
		k := widenSteps(b)
		if b > 0 {
			lane := int64(b) << 16
			if k < 1 || (k > 1 && int64(k)*lane > 1<<31-1) || int64(k+1)*lane <= 1<<31-1 {
				t.Fatalf("widenSteps(%d) = %d: %d steps of %d overflow int32, or %d do not", b, k, k, lane, k+1)
			}
		}
		steps := k + 1
		if b == 0 {
			steps = 3
		}
		for _, w := range []Num{Num(b), Num(-b)} {
			if b == 32768 {
				w = Min
			}
			// MatVec: steps of sixteen columns, and a masked step more.
			for _, cols := range []int{16 * steps, 16*steps + 9} {
				const rows = 5
				mat := fill(rows*cols, func() Num { return Min })
				vin := fill(cols, func() Num { return w })
				checkKernels(t, rows, cols, mat, vin, make([]Num, rows))
				if avx2 && b > 0 && w > 0 && cols == 16*steps {
					var sums [rows]Acc
					matVecAcc(sums[:], mat, vin, k+1)
					if sums[0] == scalarSum(mat[:cols], vin) {
						t.Fatalf("b=%d: matVecAcc with k=%d got every sum right; the inputs do not reach the bound", b, k+1)
					}
				}
			}
			// VecMat: steps of two rows, and an odd row more.
			for _, rows := range []int{2 * steps, 2*steps + 1} {
				const cols = 21
				mat := fill(rows*cols, func() Num { return Min })
				vin := fill(rows, func() Num { return w })
				checkKernels(t, rows, cols, mat, make([]Num, cols), vin)
				if avx2 && b > 0 && w > 0 && rows == 2*steps {
					sums := make([]Acc, cols)
					vecMatAcc(sums, vin, mat, k+1)
					want := make([]Num, cols)
					oneRowVecMat(want, vin, mat)
					if AccSat(sums[0]) == want[0] {
						t.Fatalf("b=%d: vecMatAcc with k=%d got every sum right; the inputs do not reach the bound", b, k+1)
					}
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

// FuzzWidenBound checks MatVec and VecMat against the one-row oracles
// with both input vectors bounded by b: each word is ±b or a word of
// data reduced into [-b, b], and the matrix is Min except where data
// says otherwise, so that sums run close to the edge of the widening
// interval. Shapes reach 9 rows by 2,100 columns, and 2,100 rows by 16
// to 25 columns, so VecMat too runs past 127 steps at b = 256.
func FuzzWidenBound(f *testing.F) {
	f.Add(uint16(256), uint8(5), uint16(2048), []byte{})
	f.Add(uint16(32768), uint8(3), uint16(37), []byte{0x00, 0x80})
	f.Add(uint16(16383), uint8(9), uint16(48), []byte{0xff, 0x3f, 0x01})
	f.Add(uint16(1), uint8(1), uint16(17), []byte{0x07})
	f.Fuzz(func(t *testing.T, bound uint16, rows uint8, cols uint16, data []byte) {
		b := min(int(bound), 32768)
		r, c := int(rows)%10, int(cols)%2101
		k := 0
		word := func() int {
			k++
			if len(data) < 2 {
				return 0
			}
			return int(binary.LittleEndian.Uint16(data[(2*k)%(len(data)-1):]))
		}
		vec := func() Num {
			w := word()
			switch {
			case w%3 == 0:
				return Num(max(-b, int(Min)))
			case w%3 == 1 || b == 0:
				return Num(min(b, int(Max)))
			}
			return Num(w%(2*b+1) - b)
		}
		matWord := func() Num {
			if w := word(); w%4 != 0 {
				return Num(w)
			}
			return Min
		}
		checkKernels(t, r, c, fill(r*c, matWord), fill(c, vec), fill(r, vec))
		checkKernels(t, c, 16+r, fill(c*(16+r), matWord), fill(16+r, vec), fill(c, vec))
	})
}

// benchMatrix returns a rows x cols matrix of random words and a vector
// of cols words, random over the whole range or within ±256, the Q8.8
// range the programs' MMV and VMM inputs stay in.
func benchMatrix(rows, cols int, q88 bool) (mat, vin []Num) {
	rng := rand.New(rand.NewSource(1))
	mat = fill(rows*cols, func() Num { return Num(rng.Intn(1 << 16)) })
	vin = fill(cols, func() Num {
		if q88 {
			return Num(rng.Intn(513) - 256)
		}
		return Num(rng.Intn(1 << 16))
	})
	return mat, vin
}

// The matrix kernel benchmarks run the full-range vectors, which
// widen after every step, and the Q8.8 ones, which widen once per row
// or pass: 500x500 is MLP's and BM's shape, 84x160 CNN's banded
// convolution.
func BenchmarkMatVecKernel(b *testing.B) {
	for _, bc := range []struct {
		name       string
		rows, cols int
		q88        bool
	}{
		{"500x500", 500, 500, false},
		{"500x500/q88", 500, 500, true},
		{"84x160/q88", 84, 160, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			mat, vin := benchMatrix(bc.rows, bc.cols, bc.q88)
			out := make([]Num, bc.rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVec(out, mat, vin)
			}
		})
	}
}

func BenchmarkVecMatKernel(b *testing.B) {
	for _, bc := range []struct {
		name string
		q88  bool
	}{{"500x500", false}, {"500x500/q88", true}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 500
			mat, vin := benchMatrix(n, n, bc.q88)
			out, acc := make([]Num, n), make([]Acc, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				VecMat(out, vin, mat, acc)
			}
		})
	}
}

package nn

import (
	"fmt"
	"math"
	"testing"
)

// oneRowMulVec is the one-row MulVec loop the blocked version replaced,
// kept as its oracle.
func oneRowMulVec(m Mat, x Vec) Vec {
	out := make(Vec, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Row(i)
		for j, v := range x {
			s += row[j] * v
		}
		out[i] = s
	}
	return out
}

// oneRowVecMul is the one-row VecMul sweep the blocked version replaced,
// kept as its oracle.
func oneRowVecMul(m Mat, x Vec) Vec {
	out := make(Vec, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		row := m.Row(i)
		for j := range out {
			out[j] += xi * row[j]
		}
	}
	return out
}

// wideRange draws values spread over many binades, so that reordering any
// addition would change the rounded result.
func wideRange(r *RNG, n int) Vec {
	v := make(Vec, n)
	for i := range v {
		v[i] = r.Uniform(-1, 1) * math.Pow(10, r.Uniform(-6, 6))
	}
	return v
}

// firstBitDiff returns the first index at which a and b differ bit for
// bit (or in length), and -1 when they are identical.
func firstBitDiff(a, b Vec) int {
	for i := range a {
		if i >= len(b) || math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// TestBlockedMatVecBitIdentical checks MulVec and VecMul against the
// one-row oracles bit for bit, on every row count modulo four and on
// random shapes up to the Table III 500 x 500.
func TestBlockedMatVecBitIdentical(t *testing.T) {
	r := NewRNG(42)
	shapes := [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {2, 3}, {3, 7}, {4, 4}, {5, 9}, {500, 500}}
	for k := 0; k < 40; k++ {
		shapes = append(shapes, [2]int{1 + int(r.Uint64()%70), 1 + int(r.Uint64()%70)})
	}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		t.Run(fmt.Sprintf("%dx%d", rows, cols), func(t *testing.T) {
			m := Mat{Rows: rows, Cols: cols, Data: wideRange(r, rows*cols)}
			x := wideRange(r, cols)
			if i := firstBitDiff(m.MulVec(x), oneRowMulVec(m, x)); i >= 0 {
				t.Fatalf("MulVec differs from the one-row oracle at %d", i)
			}
			y := wideRange(r, rows)
			if i := firstBitDiff(m.VecMul(y), oneRowVecMul(m, y)); i >= 0 {
				t.Fatalf("VecMul differs from the one-row oracle at %d", i)
			}
		})
	}
}

// benchSink keeps the benchmarked products live.
var benchSink Vec

func benchMatVec(b *testing.B, f func(Mat, Vec) Vec) {
	r := NewRNG(1)
	m := r.FillMat(500, 500, -1, 1)
	x := r.FillVec(500, -1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f(m, x)
	}
}

func BenchmarkMulVecKernel(b *testing.B) { benchMatVec(b, Mat.MulVec) }
func BenchmarkVecMulKernel(b *testing.B) { benchMatVec(b, Mat.VecMul) }

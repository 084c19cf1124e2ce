// Package nn provides float64 reference implementations of the ten neural
// network benchmarks of Table III (MLP, CNN/LeNet-5, RNN, LSTM, Autoencoder,
// Sparse Autoencoder, BM, RBM, SOM and HNN).
//
// These models are the golden oracles for the Cambricon code generators in
// internal/codegen: each generated program runs on the internal/sim
// accelerator and its 16-bit fixed-point outputs are compared against these
// references. Weights are deterministic functions of a seed, and every model
// can quantize its parameters to fixed-point precision first (Quantize) so
// comparisons isolate computation error from parameter-rounding error.
package nn

import (
	"math"

	"cambricon/internal/fixed"
)

// Vec is a dense vector.
type Vec []float64

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m Mat) Row(i int) Vec { return Vec(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec computes m * x. It sweeps x once per four rows with four
// independent sums; each sum still adds its row's products in column
// order, so every output is bit-identical to a one-row dot product.
func (m Mat) MulVec(x Vec) Vec {
	if len(x) != m.Cols {
		panic("nn: MulVec dimension mismatch")
	}
	out := make(Vec, m.Rows)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		r0, r1 := m.Row(i)[:len(x)], m.Row(i + 1)[:len(x)]
		r2, r3 := m.Row(i + 2)[:len(x)], m.Row(i + 3)[:len(x)]
		var s0, s1, s2, s3 float64
		for j, v := range x {
			s0 += r0[j] * v
			s1 += r1[j] * v
			s2 += r2[j] * v
			s3 += r3[j] * v
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < m.Rows; i++ {
		var s float64
		row := m.Row(i)[:len(x)]
		for j, v := range x {
			s += row[j] * v
		}
		out[i] = s
	}
	return out
}

// VecMul computes x * m (contraction over rows). It walks the matrix in
// storage order and takes four rows per pass: out[j] is loaded once, gets
// the four row terms added one at a time in row order, and is stored
// once, so every output sees the same additions in the same order as a
// one-row sweep and is bit-identical to it.
func (m Mat) VecMul(x Vec) Vec {
	if len(x) != m.Rows {
		panic("nn: VecMul dimension mismatch")
	}
	out := make(Vec, m.Cols)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		x0, x1, x2, x3 := x[i], x[i+1], x[i+2], x[i+3]
		r0, r1 := m.Row(i)[:len(out)], m.Row(i + 1)[:len(out)]
		r2, r3 := m.Row(i + 2)[:len(out)], m.Row(i + 3)[:len(out)]
		for j, o := range out {
			o += x0 * r0[j]
			o += x1 * r1[j]
			o += x2 * r2[j]
			o += x3 * r3[j]
			out[j] = o
		}
	}
	for ; i < m.Rows; i++ {
		xi := x[i]
		row := m.Row(i)[:len(out)]
		for j := range out {
			out[j] += xi * row[j]
		}
	}
	return out
}

// Add returns a+b element-wise.
func Add(a, b Vec) Vec {
	if len(a) != len(b) {
		panic("nn: Add length mismatch")
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// Hadamard returns a*b element-wise.
func Hadamard(a, b Vec) Vec {
	if len(a) != len(b) {
		panic("nn: Hadamard length mismatch")
	}
	out := make(Vec, len(a))
	for i := range a {
		out[i] = a[i] * b[i]
	}
	return out
}

// Dot returns the inner product.
func Dot(a, b Vec) float64 {
	if len(a) != len(b) {
		panic("nn: Dot length mismatch")
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Dist2 returns the squared Euclidean distance.
func Dist2(a, b Vec) float64 {
	if len(a) != len(b) {
		panic("nn: Dist2 length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// Quantize rounds every element to 16-bit fixed-point precision, so that a
// reference model runs on exactly the parameters the accelerator sees.
func Quantize(v Vec) Vec {
	out := make(Vec, len(v))
	for i, x := range v {
		out[i] = fixed.FromFloat(x).Float()
	}
	return out
}

// QuantizeMat quantizes a matrix in place and returns it.
func QuantizeMat(m Mat) Mat {
	copy(m.Data, Quantize(m.Data))
	return m
}

// RNG is a small deterministic generator (xorshift64*) used to initialize
// weights and synthesize inputs reproducibly across the reference models and
// code generators.
type RNG struct{ state uint64 }

// NewRNG seeds a generator; a zero seed is replaced to keep the stream
// non-degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Uniform returns a uniform value in [lo, hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// FillVec fills a fresh vector with uniform values in [lo, hi).
func (r *RNG) FillVec(n int, lo, hi float64) Vec {
	out := make(Vec, n)
	for i := range out {
		out[i] = r.Uniform(lo, hi)
	}
	return out
}

// FillMat fills a fresh matrix with uniform values in [lo, hi).
func (r *RNG) FillMat(rows, cols int, lo, hi float64) Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.Uniform(lo, hi)
	}
	return m
}

// WeightScale is the conventional init range for benchmark weights: small
// enough that Q8.8 pre-activations stay far from saturation on every
// Table III topology.
func WeightScale(fanIn int) float64 {
	if fanIn < 1 {
		fanIn = 1
	}
	return 1.0 / math.Sqrt(float64(fanIn))
}

// Package fixed implements the 16-bit fixed-point arithmetic used by the
// Cambricon-ACC datapath (Table II: "512 bits (32 x 16-bit fixed point)").
//
// Values are stored as Num, a signed 16-bit integer interpreted with
// FracBits fractional bits (Q8.8 by default: range [-128, 128), resolution
// 1/256). All arithmetic saturates on overflow, matching typical accelerator
// fixed-point datapaths. Dot products and matrix rows accumulate in a wide
// Acc before a single rounding/saturation step, modelling the wide
// accumulators of the matrix function unit.
package fixed

import "math"

// FracBits is the number of fractional bits in a Num (Q8.8).
const FracBits = 8

// One is the fixed-point representation of 1.0.
const One Num = 1 << FracBits

// Max and Min are the saturation bounds of the 16-bit datapath.
const (
	Max Num = math.MaxInt16
	Min Num = math.MinInt16
)

// Num is a 16-bit fixed-point number with FracBits fractional bits.
type Num int16

// Acc accumulates raw Num products (MulAcc, scale 2^(2*FracBits)). It is
// wide enough to sum 2^16 products of arbitrary Nums without overflow
// checks on every step; AccSat folds it back to a Num.
type Acc int64

// FromFloat converts f to fixed point, rounding to nearest and saturating.
func FromFloat(f float64) Num {
	scaled := math.Round(f * (1 << FracBits))
	if scaled > float64(Max) {
		return Max
	}
	if scaled < float64(Min) {
		return Min
	}
	return Num(scaled)
}

// Float converts n back to a float64.
func (n Num) Float() float64 { return float64(n) / (1 << FracBits) }

func sat32(v int32) Num {
	if v > int32(Max) {
		return Max
	}
	if v < int32(Min) {
		return Min
	}
	return Num(v)
}

// Add returns a+b with saturation.
func Add(a, b Num) Num { return sat32(int32(a) + int32(b)) }

// Sub returns a-b with saturation.
func Sub(a, b Num) Num { return sat32(int32(a) - int32(b)) }

// Mul returns a*b with rounding to nearest and saturation.
func Mul(a, b Num) Num {
	p := int32(a) * int32(b)
	// Round to nearest: add half an LSB before the arithmetic shift.
	p += 1 << (FracBits - 1)
	return sat32(p >> FracBits)
}

// Div returns a/b with rounding toward nearest and saturation. Division by
// zero saturates toward the sign of a (and returns Max for 0/0), matching a
// hardware divider that flags and clamps.
func Div(a, b Num) Num {
	if b == 0 {
		if a < 0 {
			return Min
		}
		return Max
	}
	n := int64(a) << (FracBits + 1) // one extra bit for rounding
	q := n / int64(b)
	if q >= 0 {
		q = (q + 1) >> 1
	} else {
		q = -(((-q) + 1) >> 1)
	}
	if q > int64(Max) {
		return Max
	}
	if q < int64(Min) {
		return Min
	}
	return Num(q)
}

// MulAcc returns the full-precision product of a and b as an accumulator
// value (still scaled by 2^(2*FracBits); callers accumulating several
// products should use Acc arithmetic and fold once via AccSat).
func MulAcc(a, b Num) Acc { return Acc(int64(a) * int64(b)) }

// AccSat folds a sum of raw products (scale 2^(2*FracBits)) back to a Num,
// rounding to nearest.
func AccSat(sum Acc) Num {
	s := int64(sum)
	if s >= 0 {
		s += 1 << (FracBits - 1)
	} else {
		s -= 1 << (FracBits - 1)
	}
	s >>= FracBits
	if s > int64(Max) {
		return Max
	}
	if s < int64(Min) {
		return Min
	}
	return Num(s)
}

// Dot computes the dot product of a and b with 64-bit accumulation and a
// single final rounding, mirroring the matrix unit's wide accumulators:
// a one-row MatVec. It panics if the lengths differ (an ISA-level size
// mismatch is a program bug caught earlier by the simulator).
func Dot(a, b []Num) Num {
	if len(a) != len(b) {
		panic("fixed: dot product length mismatch")
	}
	var sum [1]Acc
	matVecAcc(sum[:], a, b, widenSteps(maxAbs(b)))
	return AccSat(sum[0])
}

// matVecRows is how many rows MatVec hands matVecAcc per call: its sums
// live on the stack, and the kernel's per-call set-up is paid once per
// this many rows.
const matVecRows = 64

// MatVec computes out = M x vin for the row-major len(out) x len(vin)
// matrix held in mat (the MMV contraction). Each output is the exact
// sum over its row, rounded once, so it equals Dot over its row bit for
// bit.
func MatVec(out, mat, vin []Num) {
	cols := len(vin)
	if len(mat) < len(out)*cols {
		panic("fixed: MatVec matrix too small")
	}
	k := widenSteps(maxAbs(vin))
	var sums [matVecRows]Acc
	for i := 0; i < len(out); i += matVecRows {
		s := sums[:min(matVecRows, len(out)-i)]
		matVecAcc(s, mat[i*cols:], vin, k)
		for j, sum := range s {
			out[i+j] = AccSat(sum)
		}
	}
}

// VecMat computes out = vin x M for the row-major len(vin) x len(out)
// matrix held in mat (the VMM contraction over rows), using acc (at least
// len(out) long) as the wide accumulators. The sums are exact integers,
// so the result does not depend on the order the kernel adds them in.
func VecMat(out, vin, mat []Num, acc []Acc) {
	cols := len(out)
	if len(mat) < len(vin)*cols {
		panic("fixed: VecMat matrix too small")
	}
	acc = acc[:cols]
	vecMatAcc(acc, vin, mat, widenSteps(maxAbs(vin)))
	out = out[:len(acc)]
	for j, sum := range acc {
		out[j] = AccSat(sum)
	}
}

// VecAdd sets out[i] = Add(a[i], b[i]) for every i < len(out) (VAV and
// MAM). a and b must be at least as long as out; out may be a or b.
func VecAdd(out, a, b []Num) { vadd(out, a[:len(out)], b[:len(out)]) }

// VecSub sets out[i] = Sub(a[i], b[i]) for every i < len(out) (VSV and
// MSM). a and b must be at least as long as out; out may be a or b.
func VecSub(out, a, b []Num) { vsub(out, a[:len(out)], b[:len(out)]) }

// VecMul sets out[i] = Mul(a[i], b[i]) for every i < len(out) (VMV). a
// and b must be at least as long as out; out may be a or b.
func VecMul(out, a, b []Num) { vmul(out, a[:len(out)], b[:len(out)]) }

// VecMax sets out[i] to the larger of a[i] and b[i] for every
// i < len(out) (VGTM). a and b must be at least as long as out; out may
// be a or b.
func VecMax(out, a, b []Num) { vmax(out, a[:len(out)], b[:len(out)]) }

// VecAddScalar sets out[i] = Add(a[i], s) for every i < len(out) (VAS).
// a must be at least as long as out; out may be a.
func VecAddScalar(out, a []Num, s Num) { vaddScalar(out, a[:len(out)], s) }

// VecMulScalar sets out[i] = Mul(a[i], s) for every i < len(out) (MMS,
// and one row of OP). a must be at least as long as out; out may be a.
func VecMulScalar(out, a []Num, s Num) { vmulScalar(out, a[:len(out)], s) }

// expLo and expHi bound the inputs whose e^n is neither 0 nor Max: every
// n below expLo rounds to 0, and every n above expHi saturates to Max.
const (
	expLo = -1597
	expHi = 1242
)

// expTable holds FromFloat(e^n) for expLo <= n <= expHi.
var expTable = func() (t [expHi - expLo + 1]Num) {
	for i := range t {
		t[i] = FromFloat(math.Exp(Num(expLo + i).Float()))
	}
	return t
}()

// Exp returns e^n. The hardware computes transcendentals with a CORDIC
// functional block; we model its result as the correctly-rounded fixed-point
// value (CORDIC error is below the Q8.8 quantization step), read from a
// table built once from math.Exp.
func Exp(n Num) Num {
	switch {
	case n < expLo:
		return 0
	case n > expHi:
		return Max
	}
	return expTable[int(n)-expLo]
}

// Log returns the natural logarithm of n. Non-positive inputs saturate to
// Min, modelling a clamped hardware flag.
func Log(n Num) Num {
	if n <= 0 {
		return Min
	}
	return FromFloat(math.Log(n.Float()))
}

// FromFloats converts a float slice to fixed point.
func FromFloats(fs []float64) []Num {
	out := make([]Num, len(fs))
	for i, f := range fs {
		out[i] = FromFloat(f)
	}
	return out
}

// Floats converts a fixed-point slice to floats.
func Floats(ns []Num) []float64 {
	out := make([]float64, len(ns))
	for i, n := range ns {
		out[i] = n.Float()
	}
	return out
}

// ToBytes serializes ns little-endian into dst, which must hold 2*len(ns)
// bytes. This is the scratchpad/main-memory storage format.
func ToBytes(ns []Num, dst []byte) {
	if len(dst) < 2*len(ns) {
		panic("fixed: ToBytes destination too small")
	}
	// Reslicing to the exact extent lets the compiler drop the
	// per-element bounds checks and widen the stores.
	dst = dst[:2*len(ns)]
	for i, n := range ns {
		u := uint16(n)
		dst[2*i] = byte(u)
		dst[2*i+1] = byte(u >> 8)
	}
}

// FromBytes deserializes count little-endian Nums from src.
func FromBytes(src []byte, count int) []Num {
	out := make([]Num, count)
	FromBytesInto(src, out)
	return out
}

// FromBytesInto deserializes len(dst) little-endian Nums from src into dst
// (allocation-free deserialization for hot paths).
func FromBytesInto(src []byte, dst []Num) {
	if len(src) < 2*len(dst) {
		panic("fixed: FromBytesInto source too small")
	}
	src = src[:2*len(dst)]
	for i := range dst {
		dst[i] = Num(uint16(src[2*i]) | uint16(src[2*i+1])<<8)
	}
}

// Bytes is the storage size in bytes of n fixed-point elements.
func Bytes(n int) int { return 2 * n }

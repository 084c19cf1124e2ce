package fixed

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromFloatRoundTrip(t *testing.T) {
	cases := []float64{0, 1, -1, 0.5, -0.5, 3.25, -3.25, 127.5, -127.5, 1.0 / 256}
	for _, f := range cases {
		n := FromFloat(f)
		if got := n.Float(); got != f {
			t.Errorf("FromFloat(%v).Float() = %v", f, got)
		}
	}
}

func TestFromFloatSaturates(t *testing.T) {
	if FromFloat(1e9) != Max {
		t.Errorf("large positive should saturate to Max")
	}
	if FromFloat(-1e9) != Min {
		t.Errorf("large negative should saturate to Min")
	}
	if FromFloat(200) != Max {
		t.Errorf("200 exceeds Q8.8 range, should saturate")
	}
}

func TestFromFloatRoundsToNearest(t *testing.T) {
	step := 1.0 / 256
	// A value 0.4 steps above a representable point rounds down; 0.6 rounds up.
	base := 3.0
	if got := FromFloat(base + 0.4*step); got != FromFloat(base) {
		t.Errorf("0.4 LSB should round down: got %v", got.Float())
	}
	if got := FromFloat(base + 0.6*step); got != FromFloat(base)+1 {
		t.Errorf("0.6 LSB should round up: got %v", got.Float())
	}
}

func TestAddSubSaturation(t *testing.T) {
	if Add(Max, 1) != Max {
		t.Errorf("Add should saturate at Max")
	}
	if Sub(Min, 1) != Min {
		t.Errorf("Sub should saturate at Min")
	}
	if Add(FromFloat(2), FromFloat(3)) != FromFloat(5) {
		t.Errorf("2+3 != 5")
	}
	if Sub(FromFloat(2), FromFloat(3)) != FromFloat(-1) {
		t.Errorf("2-3 != -1")
	}
}

func TestMul(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{2, 3, 6},
		{-2, 3, -6},
		{0.5, 0.5, 0.25},
		{-0.5, -0.5, 0.25},
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := Mul(FromFloat(c.a), FromFloat(c.b)); got != FromFloat(c.want) {
			t.Errorf("Mul(%v,%v) = %v, want %v", c.a, c.b, got.Float(), c.want)
		}
	}
	if Mul(Max, Max) != Max {
		t.Errorf("Max*Max should saturate")
	}
	if Mul(Min, Min) != Max {
		t.Errorf("Min*Min should saturate positive")
	}
}

func TestDiv(t *testing.T) {
	cases := []struct{ a, b, want float64 }{
		{6, 3, 2},
		{-6, 3, -2},
		{1, 2, 0.5},
		{1, 4, 0.25},
	}
	for _, c := range cases {
		if got := Div(FromFloat(c.a), FromFloat(c.b)); got != FromFloat(c.want) {
			t.Errorf("Div(%v,%v) = %v, want %v", c.a, c.b, got.Float(), c.want)
		}
	}
	if Div(FromFloat(1), 0) != Max {
		t.Errorf("positive/0 should clamp to Max")
	}
	if Div(FromFloat(-1), 0) != Min {
		t.Errorf("negative/0 should clamp to Min")
	}
	if Div(0, 0) != Max {
		t.Errorf("0/0 clamps to Max by convention")
	}
}

func TestDivAccuracy(t *testing.T) {
	// Division should be within one LSB of the real quotient over a sweep.
	for a := -100; a <= 100; a += 7 {
		for b := -100; b <= 100; b += 13 {
			if b == 0 {
				continue
			}
			fa, fb := float64(a)/8, float64(b)/8
			got := Div(FromFloat(fa), FromFloat(fb)).Float()
			want := fa / fb
			if want > 127.99 || want < -128 {
				continue
			}
			if math.Abs(got-want) > 1.5/256 {
				t.Fatalf("Div(%v,%v)=%v want %v", fa, fb, got, want)
			}
		}
	}
}

func TestDot(t *testing.T) {
	a := FromFloats([]float64{1, 2, 3})
	b := FromFloats([]float64{4, 5, 6})
	if got := Dot(a, b); got != FromFloat(32) {
		t.Errorf("Dot = %v, want 32", got.Float())
	}
}

func TestDotAccumulatesWide(t *testing.T) {
	// 1000 products of 10*10 = 100000 overflows int16 wildly but the wide
	// accumulator must only saturate at the final fold.
	n := 1000
	a := make([]Num, n)
	for i := range a {
		a[i] = FromFloat(10)
	}
	if got := Dot(a, a); got != Max {
		t.Errorf("huge dot should saturate to Max, got %v", got.Float())
	}
	// Alternating +10*10 and -10*10 cancels exactly: the wide accumulator
	// must not saturate mid-sum.
	b := make([]Num, n)
	for i := range b {
		if i%2 == 0 {
			b[i] = FromFloat(10)
		} else {
			b[i] = FromFloat(-10)
		}
	}
	if got := Dot(a, b); got != 0 {
		t.Errorf("cancelling dot = %v, want 0", got.Float())
	}
}

func TestDotLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic on length mismatch")
		}
	}()
	Dot(make([]Num, 2), make([]Num, 3))
}

func TestExpLog(t *testing.T) {
	if got, want := Exp(0).Float(), 1.0; got != want {
		t.Errorf("Exp(0) = %v", got)
	}
	if got := Exp(FromFloat(1)).Float(); math.Abs(got-math.E) > 1.0/256 {
		t.Errorf("Exp(1) = %v", got)
	}
	if got := Log(FromFloat(math.E)).Float(); math.Abs(got-1) > 2.0/256 {
		t.Errorf("Log(e) = %v", got)
	}
	if Log(0) != Min {
		t.Errorf("Log(0) should clamp to Min")
	}
	if Log(FromFloat(-1)) != Min {
		t.Errorf("Log(-1) should clamp to Min")
	}
	// Exp of a large value saturates.
	if Exp(FromFloat(20)) != Max {
		t.Errorf("Exp(20) should saturate")
	}
}

func TestBytesRoundTrip(t *testing.T) {
	ns := FromFloats([]float64{1.5, -2.25, 0, 127, -128})
	buf := make([]byte, Bytes(len(ns)))
	ToBytes(ns, buf)
	got := FromBytes(buf, len(ns))
	for i := range ns {
		if got[i] != ns[i] {
			t.Errorf("byte round trip [%d]: got %v want %v", i, got[i], ns[i])
		}
	}
}

func TestToBytesPanicsOnShortDst(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	ToBytes(make([]Num, 4), make([]byte, 7))
}

func TestFromBytesPanicsOnShortSrc(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	FromBytes(make([]byte, 7), 4)
}

// Property: Add is commutative and matches saturated float addition.
func TestQuickAddProperties(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Num(a), Num(b)
		if Add(x, y) != Add(y, x) {
			return false
		}
		want := FromFloat(x.Float() + y.Float())
		return Add(x, y) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Mul is commutative and within one LSB of float multiplication.
func TestQuickMulProperties(t *testing.T) {
	f := func(a, b int16) bool {
		x, y := Num(a), Num(b)
		if Mul(x, y) != Mul(y, x) {
			return false
		}
		wantF := x.Float() * y.Float()
		got := Mul(x, y).Float()
		if wantF >= Max.Float() {
			return got == Max.Float()
		}
		if wantF <= Min.Float() {
			return got == Min.Float()
		}
		return math.Abs(got-wantF) <= 1.0/256
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: byte serialization round-trips any value.
func TestQuickBytesRoundTrip(t *testing.T) {
	f := func(vals []int16) bool {
		ns := make([]Num, len(vals))
		for i, v := range vals {
			ns[i] = Num(v)
		}
		buf := make([]byte, Bytes(len(ns)))
		ToBytes(ns, buf)
		got := FromBytes(buf, len(ns))
		for i := range ns {
			if got[i] != ns[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Sat clamps exactly to [Min, Max].
func TestMulAccSat(t *testing.T) {
	if got := MulAcc(FromFloat(2), FromFloat(3)); AccSat(got) != FromFloat(6) {
		t.Errorf("MulAcc/AccSat = %v", AccSat(got).Float())
	}
}

package nn

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMatVecOps(t *testing.T) {
	m := Mat{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	x := Vec{1, 0, -1}
	got := m.MulVec(x)
	if got[0] != -2 || got[1] != -2 {
		t.Errorf("MulVec = %v", got)
	}
	y := Vec{1, -1}
	got2 := m.VecMul(y)
	want := Vec{-3, -3, -3}
	for i := range want {
		if got2[i] != want[i] {
			t.Errorf("VecMul = %v", got2)
			break
		}
	}
	if Dot(x, x) != 2 {
		t.Errorf("Dot = %v", Dot(x, x))
	}
	if Dist2(Vec{1, 2}, Vec{4, 6}) != 25 {
		t.Errorf("Dist2 wrong")
	}
}

func TestVecOpsPanicOnMismatch(t *testing.T) {
	funcs := map[string]func(){
		"Add":      func() { Add(Vec{1}, Vec{1, 2}) },
		"Hadamard": func() { Hadamard(Vec{1}, Vec{1, 2}) },
		"Dot":      func() { Dot(Vec{1}, Vec{1, 2}) },
		"MulVec":   func() { NewMat(2, 2).MulVec(Vec{1}) },
		"VecMul":   func() { NewMat(2, 2).VecMul(Vec{1}) },
	}
	for name, f := range funcs {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s should panic on mismatch", name)
				}
			}()
			f()
		}()
	}
}

func TestSigmoidProperties(t *testing.T) {
	if Sigmoid(0) != 0.5 {
		t.Errorf("Sigmoid(0) = %v", Sigmoid(0))
	}
	f := func(a float64) bool {
		if math.IsNaN(a) || math.IsInf(a, 0) {
			return true
		}
		s := Sigmoid(a)
		return s >= 0 && s <= 1 && math.Abs(s+Sigmoid(-a)-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// SigmoidSat matches Sigmoid away from saturation and plateaus near 1.
	if math.Abs(SigmoidSat(1)-Sigmoid(1)) > 1e-9 {
		t.Error("SigmoidSat should match Sigmoid for small inputs")
	}
	if s := SigmoidSat(50); s >= 1 || s < 0.99 {
		t.Errorf("SigmoidSat(50) = %v", s)
	}
}

func TestTanhFromSigmoid(t *testing.T) {
	if math.Abs(tanhFromSigmoid(0.7)-math.Tanh(0.7)) > 1e-12 {
		t.Error("tanh lowering identity broken")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give same stream")
		}
	}
	c := NewRNG(8)
	diff := false
	for i := 0; i < 10; i++ {
		if NewRNG(7).Uint64() != c.Uint64() {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should differ")
	}
	// Zero seed must not degenerate.
	z := NewRNG(0)
	if z.Uint64() == 0 && z.Uint64() == 0 {
		t.Error("zero seed degenerated")
	}
}

func TestQuantizeIsIdempotent(t *testing.T) {
	v := Vec{0.12345, -3.14159, 100.5, 0}
	q := Quantize(v)
	qq := Quantize(q)
	for i := range q {
		if q[i] != qq[i] {
			t.Errorf("quantize not idempotent at %d", i)
		}
		if math.Abs(q[i]-v[i]) > 1.0/512+1e-12 {
			t.Errorf("quantize error too large at %d: %v vs %v", i, q[i], v[i])
		}
	}
}

func TestMLPForward(t *testing.T) {
	m := NewMLP(MLPBenchmarkSizes(), 42)
	x := NewRNG(1).FillVec(64, 0, 1)
	y := m.Forward(x)
	if len(y) != 14 {
		t.Fatalf("output size %d", len(y))
	}
	for i, v := range y {
		if v <= 0 || v >= 1 {
			t.Errorf("y[%d] = %v outside (0,1)", i, v)
		}
	}
	// Deterministic per seed.
	y2 := NewMLP(MLPBenchmarkSizes(), 42).Forward(x)
	for i := range y {
		if y[i] != y2[i] {
			t.Fatal("MLP must be deterministic per seed")
		}
	}
	// Different seeds give different nets.
	y3 := NewMLP(MLPBenchmarkSizes(), 43).Forward(x)
	same := true
	for i := range y {
		if y[i] != y3[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical networks")
	}
}

func TestLeNet5Shapes(t *testing.T) {
	c := NewLeNet5(11)
	in := NewRNG(2).FillVec(32*32, 0, 1)
	x := c.Convs[0].Forward(in)
	if len(x) != 28*28*6 {
		t.Fatalf("C1 output %d", len(x))
	}
	x = c.Pools[0].Forward(x)
	if len(x) != 14*14*6 {
		t.Fatalf("S1 output %d", len(x))
	}
	x = c.Convs[1].Forward(x)
	if len(x) != 10*10*16 {
		t.Fatalf("C2 output %d", len(x))
	}
	x = c.Pools[1].Forward(x)
	if len(x) != 5*5*16 {
		t.Fatalf("S2 output %d", len(x))
	}
	y := c.Forward(in)
	if len(y) != 10 {
		t.Fatalf("output %d", len(y))
	}
	for _, v := range y {
		if v <= 0 || v >= 1 {
			t.Errorf("output %v outside (0,1)", v)
		}
	}
}

func TestConvKnownCase(t *testing.T) {
	// 1x3x3 input, one 2x2 identity-corner filter, no bias: output is the
	// top-left element of each window, through sigmoid.
	layer := ConvLayer{InC: 1, InH: 3, InW: 3, OutC: 1, K: 2,
		W: Mat{Rows: 1, Cols: 4, Data: []float64{1, 0, 0, 0}},
		B: Vec{0}}
	in := Vec{1, 2, 3, 4, 5, 6, 7, 8, 9}
	out := layer.Forward(in)
	want := []float64{Sigmoid(1), Sigmoid(2), Sigmoid(4), Sigmoid(5)}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestMaxPoolKnownCase(t *testing.T) {
	// 2 channels, 2x2 input, one 2x2 window.
	p := PoolLayer{C: 2, InH: 2, InW: 2, K: 2}
	in := Vec{1, 10, 2, 20, 3, 30, 4, 5} // [y][x][c]
	out := p.Forward(in)
	if out[0] != 4 || out[1] != 30 {
		t.Errorf("pooled = %v", out)
	}
}

func TestRNNStateCarriesInformation(t *testing.T) {
	in, hid, out := RNNBenchmark()
	n := NewRNN(in, hid, out, 17)
	r := NewRNG(4)
	xs := []Vec{r.FillVec(in, 0, 1), r.FillVec(in, 0, 1), r.FillVec(in, 0, 1)}
	ys := n.Forward(xs)
	if len(ys) != 3 || len(ys[0]) != out {
		t.Fatalf("bad output shape")
	}
	// Same final input with different history must differ.
	xs2 := []Vec{r.FillVec(in, 0, 1), xs[1], xs[2]}
	ys2 := n.Forward(xs2)
	same := true
	for i := range ys[2] {
		if ys[2][i] != ys2[2][i] {
			same = false
		}
	}
	if same {
		t.Error("RNN output ignores history")
	}
}

func TestLSTMGatesAndState(t *testing.T) {
	l := NewLSTM(26, 93, 61, 23)
	r := NewRNG(5)
	xs := []Vec{r.FillVec(26, 0, 1), r.FillVec(26, 0, 1)}
	ys := l.Forward(xs)
	if len(ys) != 2 || len(ys[0]) != 61 {
		t.Fatalf("bad shape")
	}
	h, c, _ := l.Step(xs[0], make(Vec, 93), make(Vec, 93))
	if len(h) != 93 || len(c) != 93 {
		t.Fatalf("bad state shape")
	}
	for i := range h {
		if h[i] < -1 || h[i] > 1 {
			t.Errorf("h[%d] = %v outside [-1,1]", i, h[i])
		}
	}
	// Zero forget + zero input gates would zero the cell; here just check
	// the cell actually depends on input.
	h2, _, _ := l.Step(xs[1], make(Vec, 93), make(Vec, 93))
	same := true
	for i := range h {
		if h[i] != h2[i] {
			same = false
		}
	}
	if same {
		t.Error("LSTM ignores input")
	}
}

func TestAutoencoderPretrainReducesReconstructionError(t *testing.T) {
	a := NewAutoencoder([]int{16, 8}, false, 31)
	x := NewRNG(6).FillVec(16, 0.1, 0.9)
	reconErr := func() float64 {
		h := a.Encode(0, x)
		xr := a.Decode(0, h)
		var s float64
		for i := range x {
			d := xr[i] - x[i]
			s += d * d
		}
		return s
	}
	before := reconErr()
	for i := 0; i < 20; i++ {
		a.PretrainStep(0, x, 0.5)
	}
	if after := reconErr(); after >= before {
		t.Errorf("pretraining did not reduce reconstruction error: %v -> %v", before, after)
	}
}

func TestSparseAutoencoderDiffersFromPlain(t *testing.T) {
	plain := NewAutoencoder([]int{16, 8}, false, 31)
	sparse := NewAutoencoder([]int{16, 8}, true, 31)
	x := NewRNG(6).FillVec(16, 0.1, 0.9)
	plain.PretrainStep(0, x, 0.5)
	sparse.PretrainStep(0, x, 0.5)
	diff := false
	for i := range plain.MLP.W[0].Data {
		if plain.MLP.W[0].Data[i] != sparse.MLP.W[0].Data[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("sparsity penalty had no effect")
	}
}

func TestBMHiddenProbAndLateralTerm(t *testing.T) {
	b := NewBM(20, 10, 77)
	for i := 0; i < 10; i++ {
		if b.L.At(i, i) != 0 {
			t.Errorf("L diagonal must be zero")
		}
	}
	r := NewRNG(8)
	v := r.FillVec(20, 0, 1)
	h0 := r.FillVec(10, 0, 1)
	wv := b.W.MulVec(v)
	p1 := b.HiddenProbWv(wv, h0)
	p2 := b.HiddenProbWv(wv, make(Vec, 10))
	diff := false
	for i := range p1 {
		if p1[i] <= 0 || p1[i] >= 1 {
			t.Errorf("p[%d]=%v out of range", i, p1[i])
		}
		if p1[i] != p2[i] {
			diff = true
		}
	}
	if !diff {
		t.Error("lateral connections have no effect (not a BM)")
	}
}

func TestHopfieldRecallsStoredPatterns(t *testing.T) {
	np, n := HNNBenchmark()
	h := NewHNN(np, n, 123)
	for p := 0; p < np; p++ {
		recalled := h.Corrupt(p, 10)
		for i := 0; i < 50; i++ {
			recalled = h.Step(recalled)
		}
		next := h.Step(recalled)
		for i := range recalled {
			if next[i] != recalled[i] {
				t.Errorf("pattern %d did not converge in 50 steps", p)
				break
			}
		}
		errs := 0
		for i := range recalled {
			if recalled[i] != h.Patterns[p][i] {
				errs++
			}
		}
		if errs > 2 {
			t.Errorf("pattern %d recalled with %d errors", p, errs)
		}
	}
}

func TestHopfieldEnergyNonIncreasing(t *testing.T) {
	h := NewHNN(3, 60, 9)
	energy := func(s Vec) float64 { return -0.5 * Dot(s, h.W.MulVec(s)) }
	s := h.Corrupt(0, 15)
	e := energy(s)
	for i := 0; i < 10; i++ {
		s = h.Step(s)
		ne := energy(s)
		if ne > e+1e-9 {
			t.Fatalf("energy increased: %v -> %v", e, ne)
		}
		e = ne
	}
}

func TestQuantizeParamsAll(t *testing.T) {
	// Quantization must leave every parameter on the Q8.8 grid.
	onGrid := func(v float64) bool {
		return v == math.Trunc(v*256)/256
	}
	m := NewMLP([]int{4, 3}, 1).QuantizeParams()
	for _, v := range m.W[0].Data {
		if !onGrid(v) {
			t.Fatalf("MLP weight off grid: %v", v)
		}
	}
	c := NewLeNet5(1).QuantizeParams()
	if !onGrid(c.Convs[0].W.Data[0]) {
		t.Error("CNN weight off grid")
	}
	r := NewRNN(4, 3, 2, 1).QuantizeParams()
	if !onGrid(r.Whh.Data[0]) {
		t.Error("RNN weight off grid")
	}
	l := NewLSTM(4, 3, 2, 1).QuantizeParams()
	if !onGrid(l.Wx[0].Data[0]) {
		t.Error("LSTM weight off grid")
	}
	b := NewBM(4, 3, 1).QuantizeParams()
	if !onGrid(b.L.Data[1]) {
		t.Error("BM weight off grid")
	}
	rb := NewRBM(4, 3, 1).QuantizeParams()
	if !onGrid(rb.W.Data[0]) {
		t.Error("RBM weight off grid")
	}
	s := NewSOM(4, 2, 2, 1).QuantizeParams()
	if !onGrid(s.W.Data[0]) {
		t.Error("SOM weight off grid")
	}
	hn := NewHNN(2, 10, 1).QuantizeParams()
	if !onGrid(hn.W.Data[1]) {
		t.Error("HNN weight off grid")
	}
	a := NewAutoencoder([]int{4, 2}, true, 1).QuantizeParams()
	if !onGrid(a.MLP.W[0].Data[0]) {
		t.Error("AE weight off grid")
	}
}

func TestBenchmarkTopologyHelpers(t *testing.T) {
	if got := AutoencoderSizes(); len(got) != 5 || got[0] != 320 || got[4] != 10 {
		t.Errorf("AutoencoderSizes = %v", got)
	}
	if v, h := BMBenchmark(); v != 500 || h != 500 {
		t.Errorf("BMBenchmark = %d,%d", v, h)
	}
	if in, hid, out := RNNBenchmark(); in != 26 || hid != 93 || out != 61 {
		t.Errorf("RNNBenchmark = %d,%d,%d", in, hid, out)
	}
	if p, n := HNNBenchmark(); p != 5 || n != 100 {
		t.Errorf("HNNBenchmark = %d,%d", p, n)
	}
	m := NewMLP([]int{4, 3, 2}, 1)
	if m.Layers() != 2 {
		t.Errorf("Layers = %d", m.Layers())
	}
	a := NewAutoencoder([]int{8, 4}, false, 1)
	if got := a.Forward(make(Vec, 8)); len(got) != 4 {
		t.Errorf("AE forward length %d", len(got))
	}
}

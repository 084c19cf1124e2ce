package nn

import (
	"math"
	"testing"
)

// bruteConv is an independent 6-deep-loop convolution used to cross-check
// ConvLayer.Forward's patch-gather formulation.
func bruteConv(l *ConvLayer, in Vec) Vec {
	oh, ow := l.OutH(), l.OutW()
	out := make(Vec, oh*ow*l.OutC)
	for oc := 0; oc < l.OutC; oc++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				s := l.B[oc]
				for ky := 0; ky < l.K; ky++ {
					for kx := 0; kx < l.K; kx++ {
						for c := 0; c < l.InC; c++ {
							w := l.W.At(oc, (ky*l.K+kx)*l.InC+c)
							v := in[((y+ky)*l.InW+(x+kx))*l.InC+c]
							s += w * v
						}
					}
				}
				out[(y*ow+x)*l.OutC+oc] = Sigmoid(s)
			}
		}
	}
	return out
}

func TestConvForwardMatchesBruteForce(t *testing.T) {
	r := NewRNG(77)
	l := ConvLayer{InC: 3, InH: 9, InW: 7, OutC: 4, K: 3,
		W: r.FillMat(4, 3*3*3, -0.3, 0.3),
		B: r.FillVec(4, -0.1, 0.1)}
	in := r.FillVec(9*7*3, 0, 1)
	got := l.Forward(in)
	want := bruteConv(&l, in)
	if len(got) != len(want) {
		t.Fatalf("length %d vs %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("element %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestLeNetForwardMatchesBruteForceStages(t *testing.T) {
	c := NewLeNet5(5)
	in := NewRNG(6).FillVec(32*32, 0, 1)
	for i := range c.Convs {
		var x Vec
		switch i {
		case 0:
			x = in
		case 1:
			x = c.Pools[0].Forward(c.Convs[0].Forward(in))
		}
		got := c.Convs[i].Forward(x)
		want := bruteConv(&c.Convs[i], x)
		for j := range got {
			if math.Abs(got[j]-want[j]) > 1e-12 {
				t.Fatalf("conv %d element %d: %v vs %v", i, j, got[j], want[j])
			}
		}
	}
}

func TestLSTMManualTinyCase(t *testing.T) {
	// 1-in, 1-hidden LSTM with hand-set weights; verify one step by hand.
	l := &LSTM{In: 1, Hidden: 1, Out: 1}
	for g := 0; g < 4; g++ {
		l.Wx[g] = Mat{Rows: 1, Cols: 1, Data: []float64{0.5}}
		l.Wh[g] = Mat{Rows: 1, Cols: 1, Data: []float64{0.25}}
		l.B[g] = Vec{0.1}
	}
	l.Why = Mat{Rows: 1, Cols: 1, Data: []float64{1}}
	l.By = Vec{0}
	x := Vec{0.8}
	h, c, y := l.Step(x, Vec{0.2}, Vec{0.3})
	pre := 0.5*0.8 + 0.25*0.2 + 0.1 // same for all gates
	ig := Sigmoid(pre)
	fg := Sigmoid(pre)
	og := Sigmoid(pre)
	cand := 2*Sigmoid(2*pre) - 1
	wantC := fg*0.3 + ig*cand
	wantH := og * (2*Sigmoid(2*wantC) - 1)
	wantY := Sigmoid(wantH)
	if math.Abs(c[0]-wantC) > 1e-12 || math.Abs(h[0]-wantH) > 1e-12 || math.Abs(y[0]-wantY) > 1e-12 {
		t.Errorf("got h=%v c=%v y=%v, want %v %v %v", h[0], c[0], y[0], wantH, wantC, wantY)
	}
}

func TestRNNManualTinyCase(t *testing.T) {
	n := &RNN{In: 1, Hidden: 1, Out: 1,
		Wxh: Mat{Rows: 1, Cols: 1, Data: []float64{2}},
		Whh: Mat{Rows: 1, Cols: 1, Data: []float64{0.5}},
		Why: Mat{Rows: 1, Cols: 1, Data: []float64{1}},
		Bh:  Vec{-1}, By: Vec{0.25}}
	h, y := n.Step(Vec{0.75}, Vec{0.4})
	wantH := Sigmoid(2*0.75 + 0.5*0.4 - 1)
	wantY := Sigmoid(wantH + 0.25)
	if math.Abs(h[0]-wantH) > 1e-12 || math.Abs(y[0]-wantY) > 1e-12 {
		t.Errorf("got h=%v y=%v, want %v %v", h[0], y[0], wantH, wantY)
	}
}

func TestBMHiddenProbManualTinyCase(t *testing.T) {
	b := &BM{V: 2, H: 2,
		W: Mat{Rows: 2, Cols: 2, Data: []float64{1, -1, 0.5, 0.5}},
		L: Mat{Rows: 2, Cols: 2, Data: []float64{0, 0.25, 0.25, 0}},
		B: Vec{0.1, -0.1}}
	p := b.HiddenProbWv(b.W.MulVec(Vec{1, 0}), Vec{0, 1})
	want0 := Sigmoid(1*1 + -1*0 + 0*0 + 0.25*1 + 0.1)
	want1 := Sigmoid(0.5*1 + 0.5*0 + 0.25*0 + 0*1 - 0.1)
	if math.Abs(p[0]-want0) > 1e-12 || math.Abs(p[1]-want1) > 1e-12 {
		t.Errorf("p = %v, want [%v %v]", p, want0, want1)
	}
}

func TestHopfieldStoredPatternsAreFixedPoints(t *testing.T) {
	h := NewHNN(3, 80, 21)
	for p, pat := range h.Patterns {
		next := h.Step(pat)
		errs := 0
		for i := range pat {
			if next[i] != pat[i] {
				errs++
			}
		}
		// With 3 patterns over 80 units, stored patterns are (near)
		// fixed points of the dynamics.
		if errs > 2 {
			t.Errorf("pattern %d moved by %d components", p, errs)
		}
	}
}

package nn

// BM is the Table III Boltzmann machine benchmark (V(500) - H(500), MNIST
// [39]). Unlike an RBM, hidden units are also laterally connected to each
// other through L, which is exactly why DaDianNao's four layer types cannot
// express it (Section I). One Gibbs update of the hidden layer is
//
//	p = sigmoid(W v + L h + b)
//	h'[i] = (r[i] > p[i]) ? 1 : 0, r ~ U[0,1)
//
// following the paper's Fig. 7 BM fragment literally (its VGT computes
// r > p; in distribution this samples with probability 1-p, and keeping the
// published convention lets the reference compare bit-exactly with the
// generated Cambricon code).
type BM struct {
	V, H int
	// W is (H x V) visible-to-hidden; L is (H x H) hidden-to-hidden with
	// a zero diagonal; B is the hidden bias.
	W, L Mat
	B    Vec
}

// BMBenchmark is the Table III topology.
func BMBenchmark() (v, h int) { return 500, 500 }

// NewBM builds a Boltzmann machine with deterministic weights.
func NewBM(v, h int, seed uint64) *BM {
	r := NewRNG(seed)
	sv, sh := WeightScale(v), WeightScale(h)
	b := &BM{
		V: v, H: h,
		W: r.FillMat(h, v, -sv, sv),
		L: r.FillMat(h, h, -sh, sh),
		B: r.FillVec(h, -sh, sh),
	}
	for i := 0; i < h; i++ {
		b.L.Set(i, i, 0) // no self-connections
	}
	return b
}

// QuantizeParams rounds all parameters to fixed-point precision.
func (b *BM) QuantizeParams() *BM {
	b.W, b.L = QuantizeMat(b.W), QuantizeMat(b.L)
	b.B = Quantize(b.B)
	return b
}

// HiddenProbWv computes p = sigmoid(W v + L h + b) given the visible
// term wv = W v, which stays fixed along a Gibbs chain that only resamples
// h, so a chain computes it once rather than on every step.
func (b *BM) HiddenProbWv(wv, h Vec) Vec {
	return SigmoidVec(Add(Add(wv, b.L.MulVec(h)), b.B))
}

// RBM is the restricted Boltzmann machine benchmark (V(500) - H(500),
// MNIST [39]): no lateral connections, so a hidden update is
// p = sigmoid(W v + b) — expressible by DaDianNao as a classifier layer
// plus sampling, which is why RBM is one of its three supported networks.
type RBM struct {
	V, H   int
	W      Mat // (H x V)
	BH, BV Vec
}

// NewRBM builds an RBM with deterministic weights.
func NewRBM(v, h int, seed uint64) *RBM {
	r := NewRNG(seed)
	sv, sh := WeightScale(v), WeightScale(h)
	return &RBM{
		V: v, H: h,
		W:  r.FillMat(h, v, -sv, sv),
		BH: r.FillVec(h, -sh, sh),
		BV: r.FillVec(v, -sv, sv),
	}
}

// QuantizeParams rounds all parameters to fixed-point precision.
func (r *RBM) QuantizeParams() *RBM {
	r.W = QuantizeMat(r.W)
	r.BH, r.BV = Quantize(r.BH), Quantize(r.BV)
	return r
}

// HiddenProb computes p(h|v) = sigmoid(W v + bh).
func (r *RBM) HiddenProb(v Vec) Vec {
	return SigmoidVec(Add(r.W.MulVec(v), r.BH))
}

// VisibleProb computes p(v|h) = sigmoid(W^T h + bv) — a VMM contraction on
// the accelerator.
func (r *RBM) VisibleProb(h Vec) Vec {
	return SigmoidVec(Add(r.W.VecMul(h), r.BV))
}

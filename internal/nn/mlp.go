package nn

// MLP is the Table III multi-layer perceptron benchmark: a stack of
// fully-connected sigmoid layers (input(64) - H1(150) - H2(150) -
// output(14), anchorperson detection [2]).
type MLP struct {
	// Sizes lists the layer widths, input first.
	Sizes []int
	// W[l] is the (Sizes[l+1] x Sizes[l]) weight matrix of layer l.
	W []Mat
	// B[l] is the bias vector of layer l.
	B []Vec
}

// MLPBenchmarkSizes is the Table III topology.
func MLPBenchmarkSizes() []int { return []int{64, 150, 150, 14} }

// NewMLP builds an MLP with deterministic uniform weights.
func NewMLP(sizes []int, seed uint64) *MLP {
	if len(sizes) < 2 {
		panic("nn: MLP needs at least two layer sizes")
	}
	r := NewRNG(seed)
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 0; l+1 < len(sizes); l++ {
		s := WeightScale(sizes[l])
		m.W = append(m.W, r.FillMat(sizes[l+1], sizes[l], -s, s))
		m.B = append(m.B, r.FillVec(sizes[l+1], -s, s))
	}
	return m
}

// QuantizeParams rounds all parameters to fixed-point precision.
func (m *MLP) QuantizeParams() *MLP {
	for l := range m.W {
		m.W[l] = QuantizeMat(m.W[l])
		m.B[l] = Quantize(m.B[l])
	}
	return m
}

// Layers returns the number of weight layers.
func (m *MLP) Layers() int { return len(m.W) }

// ForwardLayer computes one layer: sigmoid(W x + b).
func (m *MLP) ForwardLayer(l int, x Vec) Vec {
	return SigmoidVec(Add(m.W[l].MulVec(x), m.B[l]))
}

// Forward runs the full feedforward pass.
func (m *MLP) Forward(x Vec) Vec {
	for l := range m.W {
		x = m.ForwardLayer(l, x)
	}
	return x
}

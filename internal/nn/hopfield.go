package nn

// HNN is the Table III Hopfield benchmark (vector(5), vector component(100)
// [36]): an attractor network storing 5 bipolar patterns of 100 components
// with the Hebbian rule and recalling by synchronous sign updates.
type HNN struct {
	N int
	// Patterns are the stored bipolar (+1/-1) vectors.
	Patterns []Vec
	// W is the (N x N) Hebbian weight matrix with zero diagonal, scaled
	// by 1/N.
	W Mat
}

// HNNBenchmark is the Table III topology.
func HNNBenchmark() (patterns, components int) { return 5, 100 }

// NewHNN builds a Hopfield network over random bipolar patterns.
func NewHNN(patterns, n int, seed uint64) *HNN {
	r := NewRNG(seed)
	h := &HNN{N: n}
	for p := 0; p < patterns; p++ {
		v := make(Vec, n)
		for i := range v {
			if r.Float64() < 0.5 {
				v[i] = 1
			} else {
				v[i] = -1
			}
		}
		h.Patterns = append(h.Patterns, v)
	}
	h.W = NewMat(n, n)
	for _, v := range h.Patterns {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					h.W.Data[i*n+j] += v[i] * v[j] / float64(n)
				}
			}
		}
	}
	return h
}

// QuantizeParams rounds the weight matrix to fixed-point precision.
func (h *HNN) QuantizeParams() *HNN {
	h.W = QuantizeMat(h.W)
	return h
}

// Step performs one synchronous update: s' = sign(W s), with sign(0)
// holding the previous state. On the accelerator this is MMV followed by
// the VGT/VMV comparison sequence.
func (h *HNN) Step(s Vec) Vec {
	pre := h.W.MulVec(s)
	out := make(Vec, h.N)
	for i, v := range pre {
		switch {
		case v > 0:
			out[i] = 1
		case v < 0:
			out[i] = -1
		default:
			out[i] = s[i]
		}
	}
	return out
}

// Corrupt flips the first k components of pattern p (for recall tests).
func (h *HNN) Corrupt(p, k int) Vec {
	v := append(Vec(nil), h.Patterns[p]...)
	for i := 0; i < k && i < len(v); i++ {
		v[i] = -v[i]
	}
	return v
}

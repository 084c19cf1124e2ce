package nn

// SOM is the Table III self-organizing map benchmark (input data(64) -
// neurons(36), seasonal-flu data mining [48]): a 6x6 grid of 64-dimensional
// prototype vectors trained by best-matching-unit search plus a
// neighborhood-weighted update.
type SOM struct {
	In           int
	GridW, GridH int
	// W is (GridW*GridH x In): one prototype per grid neuron, row-major
	// over the grid.
	W Mat
}

// SOMBenchmark is the Table III topology.
func SOMBenchmark() (in, gridW, gridH int) { return 64, 6, 6 }

// NewSOM builds a SOM with deterministic prototypes in [0, 1).
func NewSOM(in, gridW, gridH int, seed uint64) *SOM {
	r := NewRNG(seed)
	return &SOM{In: in, GridW: gridW, GridH: gridH, W: r.FillMat(gridW*gridH, in, 0, 1)}
}

// QuantizeParams rounds all prototypes to fixed-point precision.
func (s *SOM) QuantizeParams() *SOM {
	s.W = QuantizeMat(s.W)
	return s
}

// Neurons returns the neuron count.
func (s *SOM) Neurons() int { return s.GridW * s.GridH }

// Distances returns the squared Euclidean distance of x to every prototype.
// On the accelerator this is the VSV/VMV/VDOT sequence per neuron (or one
// MMV against the stacked difference matrix).
func (s *SOM) Distances(x Vec) Vec {
	out := make(Vec, s.Neurons())
	for i := range out {
		out[i] = Dist2(s.W.Row(i), x)
	}
	return out
}

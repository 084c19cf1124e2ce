package nn

// CNN is the Table III convolutional benchmark: LeNet-5 for hand-written
// character recognition [28]: input(1@32x32) - C1(6@28x28, K 5x5) -
// S1(6@14x14, 2x2) - C2(16@10x10, K 5x5) - S2(16@5x5, 2x2) - F(120) - F(84)
// - output(10).
//
// Feature maps use channel-interleaved [y][x][c] layout, the layout the
// paper's pooling example assumes ("aggregates neurons at the same position
// of all input feature maps in the same input vector", Section III-C), so
// the reference and the generated Cambricon code index identically.
type CNN struct {
	Convs []ConvLayer
	Pools []PoolLayer
	FCs   []FCLayer
}

// ConvLayer is a valid (no padding) convolution with stride 1 and sigmoid
// activation.
type ConvLayer struct {
	InC, InH, InW int
	OutC, K       int
	// W is (OutC x K*K*InC): each row is a filter over a [ky][kx][c]
	// patch. B has one bias per output channel.
	W Mat
	B Vec
}

// OutH and OutW give the output feature-map size.
func (c *ConvLayer) OutH() int { return c.InH - c.K + 1 }
func (c *ConvLayer) OutW() int { return c.InW - c.K + 1 }

// PoolLayer is non-overlapping KxK max pooling (the paper's Fig. 5 / VGTM
// example; LeNet-5's subsampling layers are modelled as max pooling, see
// DESIGN.md).
type PoolLayer struct {
	C, InH, InW, K int
}

func (p *PoolLayer) OutH() int { return p.InH / p.K }
func (p *PoolLayer) OutW() int { return p.InW / p.K }

// FCLayer is a fully-connected sigmoid layer.
type FCLayer struct {
	In, Out int
	W       Mat
	B       Vec
}

// NewLeNet5 builds the Table III LeNet-5 with deterministic weights.
func NewLeNet5(seed uint64) *CNN {
	r := NewRNG(seed)
	conv := func(inC, inH, inW, outC, k int) ConvLayer {
		s := WeightScale(k * k * inC)
		return ConvLayer{
			InC: inC, InH: inH, InW: inW, OutC: outC, K: k,
			W: r.FillMat(outC, k*k*inC, -s, s),
			B: r.FillVec(outC, -s, s),
		}
	}
	fc := func(in, out int) FCLayer {
		s := WeightScale(in)
		return FCLayer{In: in, Out: out, W: r.FillMat(out, in, -s, s), B: r.FillVec(out, -s, s)}
	}
	return &CNN{
		Convs: []ConvLayer{
			conv(1, 32, 32, 6, 5),
			conv(6, 14, 14, 16, 5),
		},
		Pools: []PoolLayer{
			{C: 6, InH: 28, InW: 28, K: 2},
			{C: 16, InH: 10, InW: 10, K: 2},
		},
		FCs: []FCLayer{
			fc(16*5*5, 120),
			fc(120, 84),
			fc(84, 10),
		},
	}
}

// QuantizeParams rounds all parameters to fixed-point precision.
func (c *CNN) QuantizeParams() *CNN {
	for i := range c.Convs {
		c.Convs[i].W = QuantizeMat(c.Convs[i].W)
		c.Convs[i].B = Quantize(c.Convs[i].B)
	}
	for i := range c.FCs {
		c.FCs[i].W = QuantizeMat(c.FCs[i].W)
		c.FCs[i].B = Quantize(c.FCs[i].B)
	}
	return c
}

// idx3 flattens a [y][x][c] coordinate.
func idx3(y, x, c, w, ch int) int { return (y*w+x)*ch + c }

// Forward applies the convolution to a [y][x][c]-flattened input and
// returns the [y][x][c]-flattened sigmoid activations.
func (c *ConvLayer) Forward(in Vec) Vec {
	oh, ow := c.OutH(), c.OutW()
	out := make(Vec, oh*ow*c.OutC)
	patch := make(Vec, c.K*c.K*c.InC)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			// Gather the [ky][kx][c] patch: K runs of K*InC elements,
			// one per input row. The generated Cambricon code gathers
			// nothing; its banded matrices place each filter row at
			// those same offsets in the K-row input band.
			p := 0
			for ky := 0; ky < c.K; ky++ {
				rowStart := idx3(y+ky, x, 0, c.InW, c.InC)
				copy(patch[p:p+c.K*c.InC], in[rowStart:rowStart+c.K*c.InC])
				p += c.K * c.InC
			}
			for oc := 0; oc < c.OutC; oc++ {
				out[idx3(y, x, oc, ow, c.OutC)] = Sigmoid(Dot(c.W.Row(oc), patch) + c.B[oc])
			}
		}
	}
	return out
}

// Forward applies max pooling to a [y][x][c]-flattened input.
func (p *PoolLayer) Forward(in Vec) Vec {
	oh, ow := p.OutH(), p.OutW()
	out := make(Vec, oh*ow*p.C)
	for y := 0; y < oh; y++ {
		for x := 0; x < ow; x++ {
			for c := 0; c < p.C; c++ {
				best := in[idx3(y*p.K, x*p.K, c, p.InW, p.C)]
				for ky := 0; ky < p.K; ky++ {
					for kx := 0; kx < p.K; kx++ {
						v := in[idx3(y*p.K+ky, x*p.K+kx, c, p.InW, p.C)]
						if v > best {
							best = v
						}
					}
				}
				out[idx3(y, x, c, ow, p.C)] = best
			}
		}
	}
	return out
}

// Forward applies the fully-connected sigmoid layer.
func (f *FCLayer) Forward(in Vec) Vec {
	return SigmoidVec(Add(f.W.MulVec(in), f.B))
}

// Forward runs the full LeNet-5 pipeline.
func (c *CNN) Forward(in Vec) Vec {
	x := c.Convs[0].Forward(in)
	x = c.Pools[0].Forward(x)
	x = c.Convs[1].Forward(x)
	x = c.Pools[1].Forward(x)
	for i := range c.FCs {
		x = c.FCs[i].Forward(x)
	}
	return x
}

package codegen

import (
	"fmt"
	"strings"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/fixed"
	"cambricon/internal/nn"
	"cambricon/internal/sim"
)

// cnnReference computes LeNet-5's seven stage maps in Q8.8, one output
// position at a time as a per-position lowering would: each conv output
// is fixed.Dot over the gathered [ky][kx][c] patch plus the bias, then
// the three-instruction sigmoid e^x / (1 + e^x); pooling takes the 2x2
// maximum; each FC layer is fixed.MatVec plus bias and sigmoid. Every
// map is in [y][x][c] order.
func cnnReference(net *nn.CNN, input nn.Vec) [7][]fixed.Num {
	one := fixed.FromFloat(1)
	sigmoid := func(x fixed.Num) fixed.Num {
		e := fixed.Exp(x)
		return fixed.Div(e, fixed.Add(e, one))
	}
	conv := func(l nn.ConvLayer, in []fixed.Num) []fixed.Num {
		w, bias := fixed.FromFloats(l.W.Data), fixed.FromFloats(l.B)
		n, seg := l.K*l.K*l.InC, l.K*l.InC
		out := make([]fixed.Num, 0, l.OutH()*l.OutW()*l.OutC)
		patch := make([]fixed.Num, 0, n)
		for y := 0; y < l.OutH(); y++ {
			for x := 0; x < l.OutW(); x++ {
				patch = patch[:0]
				for ky := 0; ky < l.K; ky++ {
					at := ((y+ky)*l.InW + x) * l.InC
					patch = append(patch, in[at:at+seg]...)
				}
				for oc := 0; oc < l.OutC; oc++ {
					out = append(out, sigmoid(fixed.Add(fixed.Dot(w[oc*n:(oc+1)*n], patch), bias[oc])))
				}
			}
		}
		return out
	}
	pool := func(l nn.PoolLayer, in []fixed.Num) []fixed.Num {
		out := make([]fixed.Num, 0, l.OutH()*l.OutW()*l.C)
		for y := 0; y < l.OutH(); y++ {
			for x := 0; x < l.OutW(); x++ {
				for c := 0; c < l.C; c++ {
					best := fixed.Min
					for ky := 0; ky < l.K; ky++ {
						for kx := 0; kx < l.K; kx++ {
							best = max(best, in[((y*l.K+ky)*l.InW+x*l.K+kx)*l.C+c])
						}
					}
					out = append(out, best)
				}
			}
		}
		return out
	}
	fc := func(l nn.FCLayer, in []fixed.Num) []fixed.Num {
		out := make([]fixed.Num, l.Out)
		fixed.MatVec(out, fixed.FromFloats(l.W.Data), in)
		for i, b := range fixed.FromFloats(l.B) {
			out[i] = sigmoid(fixed.Add(out[i], b))
		}
		return out
	}
	var maps [7][]fixed.Num
	maps[0] = conv(net.Convs[0], fixed.FromFloats(input))
	maps[1] = pool(net.Pools[0], maps[0])
	maps[2] = conv(net.Convs[1], maps[1])
	maps[3] = pool(net.Pools[1], maps[2])
	maps[4] = fc(net.FCs[0], maps[3])
	maps[5] = fc(net.FCs[1], maps[4])
	maps[6] = fc(net.FCs[2], maps[5])
	return maps
}

// unband puts a conv map whose rows are [even positions | odd positions]
// (emitConv) back in [y][x][c] order.
func unband(l nn.ConvLayer, banded []fixed.Num) []fixed.Num {
	ow, rowN := l.OutW(), l.OutW()*l.OutC
	out := make([]fixed.Num, len(banded))
	for y := 0; y < l.OutH(); y++ {
		for x := 0; x < ow; x++ {
			from := y*rowN + x%2*rowN/2 + x/2*l.OutC
			copy(out[(y*ow+x)*l.OutC:][:l.OutC], banded[from:from+l.OutC])
		}
	}
	return out
}

// TestGenCNNStageMapsMatchPerPositionReference checks the banded
// lowering stage by stage. The ten classifier outputs alone cannot show
// a wrong convolution: sigmoid, pooling and three FC layers absorb most
// element errors. So the test appends a VSTORE of each stage map (C1, P1,
// C2, P2, F1, F2, F3) to the generated listing, runs it, puts the conv
// rows back in position order, and requires every map to equal the
// per-position Q8.8 reference (cnnReference) element for element. MMV
// sums products exactly in a wide accumulator, so the banded matrices'
// zero products change nothing.
func TestGenCNNStageMapsMatchPerPositionReference(t *testing.T) {
	for _, seed := range []uint64{1, 7, 47} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p, lay, err := genCNN(seed)
			if err != nil {
				t.Fatal(err)
			}
			net, input := lenet5(seed)
			want := cnnReference(net, input)
			names := [7]string{"C1", "P1", "C2", "P2", "F1", "F2", "F3"}
			vspad := [7]int{lay.c1, lay.p1, lay.c2, lay.p2, lay.f1, lay.f2, lay.f3}
			const storeBase, storeStride = 8 << 20, 16 << 10 // main memory past the image
			var src strings.Builder
			src.WriteString(p.Source)
			for i := range names {
				fmt.Fprintf(&src, "\tSMOVE $40, #%d\n\tSMOVE $41, #%d\n\tVSTORE $40, $41, #%d // %s map\n",
					vspad[i], len(want[i]), storeBase+i*storeStride, names[i])
			}
			prog, err := asm.Assemble(src.String())
			if err != nil {
				t.Fatal(err)
			}
			m := newSim(t, sim.DefaultConfig())
			if err := p.Init(m); err != nil {
				t.Fatal(err)
			}
			m.LoadProgram(prog.Instructions)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			for i, name := range names {
				got, err := m.ReadMainNums(storeBase+i*storeStride, len(want[i]))
				if err != nil {
					t.Fatal(err)
				}
				switch name {
				case "C1":
					got = unband(net.Convs[0], got)
				case "C2":
					got = unband(net.Convs[1], got)
				}
				diff, first := 0, -1
				for j := range got {
					if got[j] != want[i][j] {
						if first < 0 {
							first = j
						}
						diff++
					}
				}
				if diff > 0 {
					t.Errorf("%s: %d of %d elements differ from the per-position reference; first [%d] = %#04x, want %#04x",
						name, diff, len(got), first, uint16(got[first]), uint16(want[i][first]))
				}
			}
		})
	}
}

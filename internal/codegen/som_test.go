package codegen

import (
	"math"
	"testing"

	"cambricon/internal/fixed"
	"cambricon/internal/nn"
	"cambricon/internal/sim"
)

// somRun executes a generated SOM program on a Table II machine and
// returns the BMU it recorded at each step and its trained prototypes.
func somRun(t *testing.T, p *Program, steps int) ([]int, []fixed.Num) {
	t.Helper()
	m := newSim(t, sim.DefaultConfig())
	if _, err := p.Execute(m); err != nil {
		t.Fatal(err)
	}
	raw, err := p.Output(m, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := Outputs{results: p.Results, out: raw}
	bmus := make([]int, steps)
	for s := range bmus {
		w, err := out.ReadWord(p.Results[0].Addr + 4*s)
		if err != nil {
			t.Fatal(err)
		}
		bmus[s] = int(int32(w))
	}
	protos, err := out.ReadNums(p.Results[1].Addr, p.Results[1].N)
	if err != nil {
		t.Fatal(err)
	}
	return bmus, protos
}

// somQ88Distances returns each neuron's squared distance to x in Q8.8:
// the differences (fixed.Sub) and their products (fixed.Mul), then the
// row's saturating adds in the order of GenSOM's row-sum tree, whose
// shifts halve from in/2 down to 1.
func somQ88Distances(w, x []fixed.Num) []fixed.Num {
	in := len(x)
	d := make([]fixed.Num, len(w)/in)
	row := make([]fixed.Num, in)
	for i := range d {
		for j := range row {
			diff := fixed.Sub(x[j], w[i*in+j])
			row[j] = fixed.Mul(diff, diff)
		}
		for s := in / 2; s >= 1; s /= 2 {
			for k := 0; k+s < in; k++ {
				row[k] = fixed.Add(row[k], row[k+s])
			}
		}
		d[i] = row[0]
	}
	return d
}

// checkSOMQ88Replay replays a SOM run in Q8.8 along its recorded BMUs:
// each must be the lowest-index minimum of somQ88Distances, and the
// trained prototypes must equal the replayed updates W += theta*eta .*
// (x - W) exactly, with theta*eta = exp(-d2/(2 sigma^2) + ln eta) of
// the lattice distance d2 from the BMU.
func checkSOMQ88Replay(t *testing.T, initW nn.Vec, inputs []nn.Vec, bmus []int, got []fixed.Num) {
	t.Helper()
	_, gw, _ := nn.SOMBenchmark()
	w := fixed.FromFloats(initW)
	for step, xf := range inputs {
		x := fixed.FromFloats(xf)
		d := somQ88Distances(w, x)
		want := 0
		for i, v := range d {
			if v < d[want] {
				want = i
			}
		}
		if bmus[step] != want {
			t.Fatalf("step %d: recorded BMU %d (distance %v), the lowest-index minimum is %d (distance %v)",
				step, bmus[step], d[bmus[step]], want, d[want])
		}
		bx, by := want%gw, want/gw
		for i := range d {
			dx, dy := i%gw-bx, i/gw-by
			a := fixed.Add(fixed.FromFloat(-float64(dx*dx+dy*dy)/(2*somSigma*somSigma)), fixed.FromFloat(math.Log(somEta)))
			te := fixed.Exp(a)
			for j, xj := range x {
				k := i*len(x) + j
				w[k] = fixed.Add(w[k], fixed.Mul(te, fixed.Sub(xj, w[k])))
			}
		}
	}
	for k := range w {
		if got[k] != w[k] {
			t.Fatalf("trained prototype element %d (neuron %d) = %#04x, Q8.8 replay %#04x",
				k, k/len(inputs[0]), uint16(got[k]), uint16(w[k]))
		}
	}
}

// TestGenSOMMatchesQ88Replay pins the whole-map lowering bit for bit,
// which somCheck's float tolerances cannot: at seeds 1, 7 and 47 every
// recorded BMU is the lowest-index minimum of the Q8.8 distances and
// the trained prototypes equal the Q8.8 replay.
func TestGenSOMMatchesQ88Replay(t *testing.T) {
	for _, seed := range []uint64{1, 7, 47} {
		initW, inputs := somData(seed)
		p, err := genSOM(initW, inputs)
		if err != nil {
			t.Fatal(err)
		}
		bmus, got := somRun(t, p, len(inputs))
		checkSOMQ88Replay(t, initW, inputs, bmus, got)
	}
}

// TestGenSOMTiesGoToTheLowestIndex crafts exact ties: two prototype rows
// equal to the first input are both at distance 0, and the BMU search
// must pick the lower index, as the scalar loop's strict comparison
// did.
func TestGenSOMTiesGoToTheLowestIndex(t *testing.T) {
	in, _, _ := nn.SOMBenchmark()
	for _, pair := range [][2]int{{3, 20}, {0, 35}, {17, 18}} {
		initW, inputs := somData(7)
		for _, i := range pair {
			copy(initW[i*in:(i+1)*in], inputs[0])
		}
		p, err := genSOM(initW, inputs)
		if err != nil {
			t.Fatal(err)
		}
		bmus, got := somRun(t, p, len(inputs))
		if bmus[0] != pair[0] {
			t.Fatalf("rows %d and %d tie at distance 0: BMU %d, want the lower index", pair[0], pair[1], bmus[0])
		}
		checkSOMQ88Replay(t, initW, inputs, bmus, got)
	}
}

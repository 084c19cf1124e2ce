package codegen

import (
	"fmt"
	"math"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/nn"
	"cambricon/internal/workload"
)

// SOM training constants (fixed-point friendly: eta=0.5, sigma=1).
const (
	somEta   = 0.5
	somSigma = 1.0
)

// GenSOM lowers the Table III self-organizing-map benchmark (64-dimensional
// inputs, 6x6 neuron grid). The prototypes stay neuron-major in the
// vector scratchpad, 36x64 = 2,304 elements, and every vector instruction
// of a training step covers all 36 neurons at once:
//
//   - the step's input is loaded once and tiled across the map with
//     doubling VMOVEs, so D = X - W is one VSV and D.*D one VMV;
//   - a tree of six shifted VAVs sums each row, leaving neuron i's
//     squared distance at element 64i;
//   - the best-matching unit is the lowest index among the minima, from
//     two VMINs: one over the row sums less a row-start table, which
//     puts every row start below every other element, and one over
//     their excess over that minimum, scaled by the same table and
//     added to an index key (somTables);
//   - the neighborhood factor theta*eta = exp(-d2/(2 sigma^2) + ln eta)
//     of every neuron comes from lattice-coordinate tables in one chain
//     ending in a VEXP, and the update W += theta*eta .* D is one VMV and
//     one VAV.
//
// Scalar work is down to loop control and the BMU's lattice coordinates.
// The constant tables are loaded once with the prototypes; every expanded
// operand that depends on the data is built on chip from the 64-element
// input. SOM is
// the one benchmark with no matrix instructions at all — exactly the kind
// of network that breaks layer-granularity ISAs (Section V-B1).
//
// Validation reads back the BMU index the accelerator chose at each step
// and replays the float update along that trajectory, so near-tie BMU picks
// cannot cascade into false failures; each pick is separately checked to be
// within fixed-point tolerance of optimal.
func GenSOM(seed uint64) (*Program, error) {
	initW, inputs := somData(seed)
	return genSOM(initW, inputs)
}

// somData returns one seed's quantized initial prototypes (neuron-major)
// and training inputs.
func somData(seed uint64) (nn.Vec, []nn.Vec) {
	in, gw, gh := nn.SOMBenchmark()
	net := nn.NewSOM(in, gw, gh, seed).QuantizeParams()
	rng := nn.NewRNG(seed + 1)
	inputs := make([]nn.Vec, workload.SOMSteps)
	for i := range inputs {
		inputs[i] = nn.Quantize(rng.FillVec(in, 0, 1))
	}
	return net.W.Data, inputs
}

// somRowSumN is the length of the row-sum tree's VAVs and of the BMU
// search: through the last row start plus the half row the tree's first
// level adds to it. Every level's shifted operand then stays inside the
// map.
func somRowSumN(in, neurons int) int { return (neurons-1)*in + in/2 }

// somTables returns the constant tables GenSOM loads after the
// prototypes, in order: the row-start table R (fixed.Max at row starts,
// 0 elsewhere) and the index key K (i raw at row start i, fixed.Max
// elsewhere), rowSumN elements each; then each element's neuron lattice
// x and y, and the -1/(2 sigma^2) factor, one element per map element
// each.
//
// The BMU search over the row sums S is exact in Q8.8. A = S - R puts
// each row start at d_i - Max, below the non-negative sums elsewhere,
// so the first VMIN finds m - Max for the least distance m. Adding
// Max - m leaves B = d_i - m at the row starts and at least Max - m
// elsewhere. B .* R is 0 at the minima, at least half (128 raw) at the
// other row starts and 0 elsewhere; adding K makes the minima i raw and
// everything else at least 128 raw, so the second VMIN is the lowest
// index among the minima, as a raw integer.
func somTables(in, gw, gh int) []float64 {
	neurons := gw * gh
	mapN, sumN := neurons*in, somRowSumN(in, neurons)
	rows := make([]float64, sumN)
	key := make([]float64, sumN)
	for k := range rows {
		if k%in == 0 {
			rows[k], key[k] = fixed.Max.Float(), fixed.Num(k/in).Float()
		} else {
			key[k] = fixed.Max.Float()
		}
	}
	cx := make([]float64, mapN)
	cy := make([]float64, mapN)
	nh := make([]float64, mapN)
	for k := range cx {
		i := k / in
		cx[k], cy[k] = float64(i%gw), float64(i/gw)
		nh[k] = -1 / (2 * somSigma * somSigma)
	}
	t := append(rows, key...)
	t = append(t, cx...)
	t = append(t, cy...)
	return append(t, nh...)
}

// somThetaEta is the Q8.8 neighborhood factor GenSOM's program computes
// for a neuron dx, dy lattice steps from the BMU, instruction by
// instruction: the squared steps, their sum, times -1/(2 sigma^2), plus
// ln eta, through VEXP.
func somThetaEta(dx, dy int) fixed.Num {
	sq := func(v int) fixed.Num {
		n := fixed.FromFloat(float64(v))
		return fixed.Mul(n, n)
	}
	d2 := fixed.Add(sq(dy), sq(dx))
	a := fixed.Add(fixed.Mul(d2, fixed.FromFloat(-1/(2*somSigma*somSigma))), fixed.FromFloat(math.Log(somEta)))
	return fixed.Exp(a)
}

// genSOM is GenSOM over given initial prototypes and inputs.
func genSOM(initW nn.Vec, inputs []nn.Vec) (*Program, error) {
	in, gw, gh := nn.SOMBenchmark()
	neurons := gw * gh
	mapN := neurons * in
	sumN := somRowSumN(in, neurons)
	if in&(in-1) != 0 {
		panic("codegen: GenSOM's row-sum tree needs a power-of-two input size")
	}
	// Tiling doubles the filled prefix of X while it fits, then copies
	// the remaining rows from the front.
	doubles := 0
	for in<<(doubles+1) <= mapN {
		doubles++
	}
	remPow := -1
	for k := 0; k <= doubles; k++ {
		if in<<k == mapN-in<<doubles {
			remPow = k
		}
	}
	if remPow < 0 {
		panic("codegen: GenSOM's tiling needs a power-of-two count of remaining rows")
	}

	flat := make(nn.Vec, 0, len(inputs)*in)
	for _, x := range inputs {
		flat = append(flat, x...)
	}
	block := append(append(nn.Vec(nil), initW...), somTables(in, gw, gh)...)

	g := newGen()
	var b asm.Builder

	xMain := g.data(flat)
	bmuMain := g.outAddr("BMU indices", 2*len(inputs)) // 32-bit words, one per step
	wOutMain := g.outAddr("trained prototypes", mapN)
	blockMain := g.data(block)

	// X, the tiled input, sits at address 0, held by the zero register
	// $63, and is reused for the row sums S: so the byte address that
	// ends a prefix of f elements is 2f, the next doubling copy's
	// element count, and the tree's shifts are its operand addresses.
	xsV := g.vspadA.takeElems(mapN)
	if xsV != 0 {
		panic("codegen: GenSOM's X must be at vector scratchpad address 0")
	}
	wV := g.vspadA.takeElems(len(block)) // prototypes, then the tables
	rowsV := wV + fixed.Bytes(mapN)
	keyV := rowsV + fixed.Bytes(sumN)
	cxV := keyV + fixed.Bytes(sumN)
	cyV := cxV + fixed.Bytes(mapN)
	nhV := cyV + fixed.Bytes(mapN)
	dV := g.vspadA.takeElems(mapN)
	uV := g.vspadA.takeElems(mapN)

	const (
		rPow     = 0  // rPow+k holds in<<k, k = 0..doubles+1
		rN       = 7  // map elements (neurons x in)
		rSumN    = 8  // row-sum tree and BMU search length
		rW       = 9  // prototypes (vspad), followed by the tables
		rBlock   = 10 // prototype-and-table block size
		rRows    = 11 // row-start table R
		rKey     = 12 // index key table K
		rCX      = 13 // lattice x table
		rCY      = 14 // lattice y table
		rNH      = 15 // -1/(2 sigma^2) table
		rD       = 16 // D = X - W
		rU       = 17 // neighborhood factors, then their product with D
		rXMain   = 18 // main-memory input cursor
		rBMUMain = 19 // main-memory BMU cursor
		rStep    = 20 // step loop counter
		rOff     = 21 // tree shift in bytes, the shifted operand's address
		rT       = 22 // scalar temp
		rMin     = 23 // the least distance less Max, then negated
		rBMU     = 24 // best neuron index
		rBX      = 25 // -BMU grid x (Q8.8)
		rBY      = 26 // -BMU grid y (Q8.8)
	)
	pow := func(k int) asm.Arg { return asm.R(uint8(rPow + k)) }
	xs := asm.R(asm.BaseReg) // zero, so X's address

	b.Comment("SOM %dx%d over %d-dim inputs (Table III), %d training steps; each vector instruction covers all %d neurons",
		gw, gh, in, len(inputs), neurons)
	for k := 0; k <= doubles+1; k++ {
		loadImm(&b, uint8(rPow+k), int32(in<<k))
	}
	loadImm(&b, rN, int32(mapN))
	loadImm(&b, rSumN, int32(sumN))
	loadImm(&b, rW, int32(wV))
	loadImm(&b, rBlock, int32(len(block)))
	b.Opc(core.VLOAD, "prototypes, row starts, index key, lattice x and y, -1/(2s^2)",
		asm.R(rW), asm.R(rBlock), asm.Imm(int32(blockMain)))
	loadImm(&b, rRows, int32(rowsV))
	loadImm(&b, rKey, int32(keyV))
	loadImm(&b, rCX, int32(cxV))
	loadImm(&b, rCY, int32(cyV))
	loadImm(&b, rNH, int32(nhV))
	loadImm(&b, rD, int32(dV))
	loadImm(&b, rU, int32(uV))
	loadImm(&b, rXMain, int32(xMain))
	loadImm(&b, rBMUMain, int32(bmuMain))
	loadImm(&b, rStep, int32(len(inputs)))

	stepTop := b.NewLabel("step")
	b.Label(stepTop)
	b.Opc(core.VLOAD, "this step's input into X", xs, pow(0), asm.R(rXMain), asm.Imm(0))
	b.Opc(core.SADD, "advance input cursor", asm.R(rXMain), asm.R(rXMain), asm.Imm(int32(fixed.Bytes(in))))
	b.Comment("tile x across the map")
	for k := 0; k < doubles; k++ {
		b.Op(core.VMOVE, pow(k+1), pow(k), xs)
	}
	b.Op(core.VMOVE, pow(doubles+1), pow(remPow), xs)

	b.Comment("best-matching-unit search")
	b.Opc(core.VSV, "D = X - W", asm.R(rD), asm.R(rN), xs, asm.R(rW))
	b.Opc(core.VMV, "S = D .* D", xs, asm.R(rN), asm.R(rD), asm.R(rD))
	loadImm(&b, rOff, int32(fixed.Bytes(in/2)))
	treeTop := b.NewLabel("rowsum")
	b.Label(treeTop)
	b.Opc(core.VAV, "S[k] += S[k+s]", xs, asm.R(rSumN), xs, asm.R(rOff))
	b.Opc(core.SDIV, "s /= 2", asm.R(rOff), asm.R(rOff), asm.Imm(2))
	b.Opc(core.SSUB, "until s = 1 byte", asm.R(rT), asm.R(rOff), asm.Imm(1))
	b.Op(core.CB, asm.Lbl(treeTop), asm.R(rT))
	b.Opc(core.VSV, "A = S - R: row starts below the rest", xs, asm.R(rSumN), xs, asm.R(rRows))
	b.Opc(core.VMIN, "least distance - Max", asm.R(rMin), asm.R(rSumN), xs)
	b.Op(core.SSUB, asm.R(rMin), xs, asm.R(rMin))
	b.Opc(core.VAS, "B = A + Max - least", xs, asm.R(rSumN), xs, asm.R(rMin))
	b.Opc(core.VMV, "B .* R: 0 at the minima", xs, asm.R(rSumN), xs, asm.R(rRows))
	b.Opc(core.VAV, "+ K: the index at the minima", xs, asm.R(rSumN), xs, asm.R(rKey))
	b.Opc(core.VMIN, "lowest index among the minima", asm.R(rBMU), asm.R(rSumN), xs)
	b.Opc(core.SSTORE, "record BMU choice", asm.R(rBMU), asm.R(rBMUMain), asm.Imm(0))
	b.Op(core.SADD, asm.R(rBMUMain), asm.R(rBMUMain), asm.Imm(4))

	b.Comment("neighborhood update: W += eta * exp(-d2/(2 sigma^2)) .* (X - W)")
	b.Opc(core.SDIV, fmt.Sprintf("by = bmu / %d", gw), asm.R(rBY), asm.R(rBMU), asm.Imm(int32(gw)))
	b.Op(core.SMUL, asm.R(rT), asm.R(rBY), asm.Imm(int32(-gw)))
	b.Opc(core.SADD, fmt.Sprintf("bx = bmu %% %d", gw), asm.R(rBX), asm.R(rBMU), asm.R(rT))
	b.Opc(core.SMUL, "-bx in Q8.8", asm.R(rBX), asm.R(rBX), asm.Imm(-int32(fixed.One)))
	b.Opc(core.SMUL, "-by in Q8.8", asm.R(rBY), asm.R(rBY), asm.Imm(-int32(fixed.One)))
	b.Opc(core.VAS, "dx", xs, asm.R(rN), asm.R(rCX), asm.R(rBX))
	b.Op(core.VMV, xs, asm.R(rN), xs, xs)
	b.Opc(core.VAS, "dy", asm.R(rU), asm.R(rN), asm.R(rCY), asm.R(rBY))
	b.Op(core.VMV, asm.R(rU), asm.R(rN), asm.R(rU), asm.R(rU))
	b.Opc(core.VAV, "lattice d2", asm.R(rU), asm.R(rN), asm.R(rU), xs)
	b.Opc(core.VMV, "-d2/(2s^2)", asm.R(rU), asm.R(rN), asm.R(rU), asm.R(rNH))
	b.Opc(core.VAS, "+ ln eta", asm.R(rU), asm.R(rN), asm.R(rU), asm.Imm(fix(math.Log(somEta))))
	b.Opc(core.VEXP, "theta * eta", asm.R(rU), asm.R(rN), asm.R(rU))
	b.Opc(core.VMV, "theta * eta .* D", asm.R(rU), asm.R(rN), asm.R(rU), asm.R(rD))
	b.Opc(core.VAV, "W += theta * eta .* D", asm.R(rW), asm.R(rN), asm.R(rW), asm.R(rU))

	b.Op(core.SADD, asm.R(rStep), asm.R(rStep), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(stepTop), asm.R(rStep))

	b.Opc(core.VSTORE, "store trained prototypes", asm.R(rW), asm.R(rN), asm.Imm(int32(wOutMain)))

	prog, err := finish("SOM", &b, g)
	if err != nil {
		return nil, err
	}
	prog.Checks = append(prog.Checks, somCheck(initW, inputs, bmuMain, wOutMain, in, gw, gh))
	return prog, nil
}

// somCheck replays the training trajectory in float64 along the
// accelerator's own BMU choices and verifies (a) each BMU pick was within
// fixed-point tolerance of optimal and (b) the final prototypes match.
func somCheck(initW nn.Vec, inputs []nn.Vec, bmuMain, wOutMain, in, gw, gh int) func(Outputs) error {
	return func(out Outputs) error {
		neurons := gw * gh
		w := nn.Mat{Rows: neurons, Cols: in, Data: append(nn.Vec(nil), initW...)}
		ref := &nn.SOM{In: in, GridW: gw, GridH: gh, W: w}
		for step, x := range inputs {
			word, err := out.ReadWord(bmuMain + 4*step)
			if err != nil {
				return err
			}
			bmu := int(int32(word))
			if bmu < 0 || bmu >= neurons {
				return fmt.Errorf("step %d: BMU index %d out of range", step, bmu)
			}
			d := ref.Distances(x)
			best := d[0]
			for _, v := range d {
				if v < best {
					best = v
				}
			}
			if d[bmu] > best+0.15 {
				return fmt.Errorf("step %d: accelerator BMU %d has distance %.4f, optimum %.4f",
					step, bmu, d[bmu], best)
			}
			// The accelerator's neighborhood factors, bit for bit.
			bx, by := bmu%gw, bmu/gw
			for i := 0; i < neurons; i++ {
				te := somThetaEta(i%gw-bx, i/gw-by).Float()
				row := ref.W.Row(i)
				for j := range row {
					row[j] += te * (x[j] - row[j])
				}
			}
		}
		got, err := out.ReadNums(wOutMain, neurons*in)
		if err != nil {
			return err
		}
		for i, gf := range fixed.Floats(got) {
			if diff := math.Abs(gf - ref.W.Data[i]); diff > 0.05 {
				return fmt.Errorf("prototype element %d: got %.4f, want %.4f (err %.4f)",
					i, gf, ref.W.Data[i], diff)
			}
		}
		return nil
	}
}

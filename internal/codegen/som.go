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
// inputs, 6x6 neuron grid): for each of SOMSteps inputs a best-matching-unit
// search (per-neuron VSV/VDOT distance plus a scalar argmin loop with
// SGT/SE/CB) and a neighborhood-weighted prototype update whose Gaussian
// factor comes from the scalar SEXP instruction. SOM is the one benchmark
// with no matrix instructions at all — exactly the kind of network that
// breaks layer-granularity ISAs (Section V-B1).
//
// Validation reads back the BMU index the accelerator chose at each step
// and replays the float update along that trajectory, so near-tie BMU picks
// cannot cascade into false failures; each pick is separately checked to be
// within fixed-point tolerance of optimal.
func GenSOM(seed uint64) (*Program, error) {
	in, gw, gh := nn.SOMBenchmark()
	neurons := gw * gh
	net := nn.NewSOM(in, gw, gh, seed).QuantizeParams()
	initW := append(nn.Vec(nil), net.W.Data...)
	rng := nn.NewRNG(seed + 1)
	inputs := make([]nn.Vec, workload.SOMSteps)
	flat := make(nn.Vec, 0, workload.SOMSteps*in)
	for i := range inputs {
		inputs[i] = nn.Quantize(rng.FillVec(in, 0, 1))
		flat = append(flat, inputs[i]...)
	}

	g := newGen()
	var b asm.Builder

	xMain := g.data(flat)
	bmuMain := g.outAddr("BMU indices", 2*workload.SOMSteps) // 32-bit words, one per step
	wOutMain := g.outAddr("trained prototypes", neurons*in)

	wV := g.vspadA.takeElems(neurons * in) // prototypes, row-contiguous
	xV := g.vspadA.takeElems(in)
	diffV := g.vspadA.takeElems(in)
	constV := g.vspadA.takeElems(in)

	rowBytes := int32(fixed.Bytes(in))

	const (
		rIn      = 0  // input dimension
		rW       = 1  // prototype base address (vspad)
		rX       = 2  // current input address (vspad)
		rDiff    = 3  // difference buffer
		rConst   = 4  // constant vector buffer
		rRow     = 5  // current prototype row address
		rI       = 6  // neuron loop counter (counts down)
		rIdx     = 7  // current neuron index (counts up)
		rD       = 8  // current distance
		rBest    = 9  // best distance
		rBMU     = 10 // best neuron index
		rFlag    = 11 // comparison scratch
		rXMain   = 12 // main-memory input cursor
		rStep    = 13 // step loop counter
		rBMUMain = 14 // main-memory BMU cursor
		rBX      = 15 // BMU grid x
		rBY      = 16 // BMU grid y
		rIX      = 17 // neuron grid x
		rIY      = 18 // neuron grid y
		rT0      = 19 // scalar temp
		rT1      = 20 // scalar temp
		rTheta   = 21 // neighborhood factor (Q8.8)
		rMatSz   = 22 // full prototype block size
	)

	b.Comment("SOM %dx%d over %d-dim inputs (Table III), %d training steps",
		gw, gh, in, workload.SOMSteps)
	loadImm(&b, rIn, int32(in))
	loadImm(&b, rMatSz, int32(neurons*in))
	loadImm(&b, rW, int32(wV))
	b.Opc(core.VLOAD, "load all prototype rows", asm.R(rW), asm.R(rMatSz), asm.Imm(int32(g.data(initW))))
	loadImm(&b, rX, int32(xV))
	loadImm(&b, rDiff, int32(diffV))
	loadImm(&b, rConst, int32(constV))
	loadImm(&b, rXMain, int32(xMain))
	loadImm(&b, rBMUMain, int32(bmuMain))
	loadImm(&b, rStep, int32(workload.SOMSteps))

	stepTop := b.NewLabel("step")
	b.Label(stepTop)
	b.Opc(core.VLOAD, "load this step's input", asm.R(rX), asm.R(rIn), asm.R(rXMain), asm.Imm(0))
	b.Opc(core.SADD, "advance input cursor", asm.R(rXMain), asm.R(rXMain), asm.Imm(rowBytes))

	b.Comment("best-matching-unit search")
	loadImm(&b, rBest, int32(fixed.Max))
	loadImm(&b, rBMU, 0)
	loadImm(&b, rIdx, 0)
	loadImm(&b, rI, int32(neurons))
	b.Op(core.SMOVE, asm.R(rRow), asm.R(rW))
	bmuTop := b.NewLabel("bmu")
	bmuSkip := b.NewLabel("bmu_skip")
	b.Label(bmuTop)
	b.Opc(core.VSV, "diff = W[i] - x", asm.R(rDiff), asm.R(rIn), asm.R(rRow), asm.R(rX))
	b.Opc(core.VDOT, "d = |diff|^2", asm.R(rD), asm.R(rIn), asm.R(rDiff), asm.R(rDiff))
	b.Opc(core.SGT, "best > d ?", asm.R(rFlag), asm.R(rBest), asm.R(rD))
	b.Opc(core.SE, "invert for skip", asm.R(rFlag), asm.R(rFlag), asm.Imm(0))
	b.Op(core.CB, asm.Lbl(bmuSkip), asm.R(rFlag))
	b.Op(core.SMOVE, asm.R(rBest), asm.R(rD))
	b.Op(core.SMOVE, asm.R(rBMU), asm.R(rIdx))
	b.Label(bmuSkip)
	b.Opc(core.SADD, "next row", asm.R(rRow), asm.R(rRow), asm.Imm(rowBytes))
	b.Op(core.SADD, asm.R(rIdx), asm.R(rIdx), asm.Imm(1))
	b.Op(core.SADD, asm.R(rI), asm.R(rI), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(bmuTop), asm.R(rI))
	b.Opc(core.SSTORE, "record BMU choice", asm.R(rBMU), asm.R(rBMUMain), asm.Imm(0))
	b.Op(core.SADD, asm.R(rBMUMain), asm.R(rBMUMain), asm.Imm(4))

	b.Comment("neighborhood update: W[i] += eta * exp(-d2/(2 sigma^2)) * (x - W[i])")
	b.Opc(core.SDIV, "by = bmu / %d", asm.R(rBY), asm.R(rBMU), asm.Imm(int32(gw)))
	b.Op(core.SMUL, asm.R(rT0), asm.R(rBY), asm.Imm(int32(gw)))
	b.Opc(core.SSUB, "bx = bmu %% %d", asm.R(rBX), asm.R(rBMU), asm.R(rT0))
	loadImm(&b, rIdx, 0)
	loadImm(&b, rI, int32(neurons))
	b.Op(core.SMOVE, asm.R(rRow), asm.R(rW))
	updTop := b.NewLabel("upd")
	b.Label(updTop)
	b.Op(core.SDIV, asm.R(rIY), asm.R(rIdx), asm.Imm(int32(gw)))
	b.Op(core.SMUL, asm.R(rT0), asm.R(rIY), asm.Imm(int32(gw)))
	b.Op(core.SSUB, asm.R(rIX), asm.R(rIdx), asm.R(rT0))
	b.Opc(core.SSUB, "dx", asm.R(rT0), asm.R(rIX), asm.R(rBX))
	b.Op(core.SMUL, asm.R(rT0), asm.R(rT0), asm.R(rT0))
	b.Opc(core.SSUB, "dy", asm.R(rT1), asm.R(rIY), asm.R(rBY))
	b.Op(core.SMUL, asm.R(rT1), asm.R(rT1), asm.R(rT1))
	b.Opc(core.SADD, "lattice d2", asm.R(rT0), asm.R(rT0), asm.R(rT1))
	// a = -d2/(2 sigma^2) in Q8.8: multiply the integer d2 by
	// -256/(2*sigma^2).
	scale := int32(math.Round(-256 / (2 * somSigma * somSigma)))
	b.Opc(core.SMUL, "a = -d2/(2s^2) in Q8.8", asm.R(rT0), asm.R(rT0), asm.Imm(scale))
	b.Opc(core.SEXP, "theta = exp(a)", asm.R(rTheta), asm.R(rT0))
	b.Opc(core.SMUL, "theta * eta (Q16.16)", asm.R(rTheta), asm.R(rTheta), asm.Imm(fix(somEta)))
	b.Opc(core.SDIV, "back to Q8.8", asm.R(rTheta), asm.R(rTheta), asm.Imm(256))
	emitConstVec(&b, rConst, rIn, rTheta)
	b.Opc(core.VSV, "diff = x - W[i]", asm.R(rDiff), asm.R(rIn), asm.R(rX), asm.R(rRow))
	b.Opc(core.VMV, "scaled = theta_eta .* diff", asm.R(rDiff), asm.R(rIn), asm.R(rDiff), asm.R(rConst))
	b.Opc(core.VAV, "W[i] += scaled", asm.R(rRow), asm.R(rIn), asm.R(rRow), asm.R(rDiff))
	b.Op(core.SADD, asm.R(rRow), asm.R(rRow), asm.Imm(rowBytes))
	b.Op(core.SADD, asm.R(rIdx), asm.R(rIdx), asm.Imm(1))
	b.Op(core.SADD, asm.R(rI), asm.R(rI), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(updTop), asm.R(rI))

	b.Op(core.SADD, asm.R(rStep), asm.R(rStep), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(stepTop), asm.R(rStep))

	b.Opc(core.VSTORE, "store trained prototypes", asm.R(rW), asm.R(rMatSz), asm.Imm(int32(wOutMain)))

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
			// Replay the accelerator's scalar theta pipeline exactly:
			// integer lattice distance, Q8.8 exp, Q16.16 product
			// truncated back to Q8.8.
			bx, by := bmu%gw, bmu/gw
			for i := 0; i < neurons; i++ {
				ix, iy := i%gw, i/gw
				d2 := (ix-bx)*(ix-bx) + (iy-by)*(iy-by)
				aRaw := int32(d2) * int32(math.Round(-256/(2*somSigma*somSigma)))
				theta := fixed.Exp(fixed.Num(aRaw))
				thetaEta := (int32(theta) * fix(somEta)) / 256
				te := fixed.Num(thetaEta).Float()
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

package codegen

import (
	"fmt"
	"math"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/nn"
	"cambricon/internal/sim"
	"cambricon/internal/workload"
)

// Boltzmann-family constants.
const (
	bmProbTol = 0.06
	rbmEta    = 0.5
	rbmWTol   = 0.03
)

// GenBM lowers the Table III Boltzmann machine benchmark (V(500)-H(500)):
// workload.GibbsSteps hidden-layer Gibbs updates following the Fig. 7 BM
// fragment — MMV for both the visible (W v) and lateral (L h) terms, the
// sigmoid chain, RV for the uniform draws and VGT for the threshold.
//
// W (500 KB) stays resident in the matrix scratchpad, but W plus the
// lateral matrix L would exceed the 768 KB capacity, so L streams through a
// half-matrix tile each step — the operand decomposition the paper assigns
// to the compiler when operands exceed scratchpad capacity (Section II-B).
//
// Sampling makes outputs probabilistic, so verification stores each step's
// probabilities p_t and draws r_t: the check recomputes p_t in float64 from
// the previous (bit-exact) hidden state, bounds |p_sim - p_ref|, and
// replays the threshold on the accelerator's own fixed-point values so the
// final hidden state must match exactly.
func GenBM(seed uint64) (*Program, error) {
	nv, nh := nn.BMBenchmark()
	net := nn.NewBM(nv, nh, seed).QuantizeParams()
	rng := nn.NewRNG(seed + 1)
	v := binaryVec(rng, nv)
	h0 := binaryVec(rng, nh)
	steps := workload.GibbsSteps

	g := newGen()
	var b asm.Builder

	vMain := g.data(v)
	hMain := g.data(h0)
	wMain := g.data(net.W.Data)
	lMain := g.data(net.L.Data)
	bMain := g.data(net.B)
	pMain := g.outAddr(steps * nh)
	rMain := g.outAddr(steps * nh)
	hOutMain := g.outAddr(nh)

	half := nh / 2
	wM := g.mspadA.takeElems(nh * nv)
	lTileM := g.mspadA.takeElems(half * nh)
	vV := g.vspadA.takeElems(nv)
	hV := g.vspadA.takeElems(nh)
	wvV := g.vspadA.takeElems(nh)
	lhV := g.vspadA.takeElems(nh)
	bV := g.vspadA.takeElems(nh)
	pV := g.vspadA.takeElems(nh)
	rV := g.vspadA.takeElems(nh)
	tmpV := g.vspadA.takeElems(nh)

	const (
		rNV    = 0
		rNH    = 1
		rHalf  = 2
		rSz    = 3
		rv     = 4
		rh     = 5
		rWv    = 6
		rLh    = 7
		rLh2   = 8 // second half of the lateral product
		rB     = 9
		rP     = 10
		rR     = 11
		rTmp   = 12
		rW     = 13
		rLTile = 14
		rPCur  = 15
		rRCur  = 16
		rSteps = 17
	)

	b.Comment("Boltzmann machine V(%d)-H(%d), %d Gibbs steps (Table III, Fig. 7)", nv, nh, steps)
	loadImm(&b, rNV, int32(nv))
	loadImm(&b, rNH, int32(nh))
	loadImm(&b, rHalf, int32(half))
	loadImm(&b, rv, int32(vV))
	b.Opc(core.VLOAD, "load visible vector", asm.R(rv), asm.R(rNV), asm.Imm(int32(vMain)))
	loadImm(&b, rh, int32(hV))
	b.Opc(core.VLOAD, "load hidden vector", asm.R(rh), asm.R(rNH), asm.Imm(int32(hMain)))
	loadImm(&b, rB, int32(bV))
	b.Opc(core.VLOAD, "load hidden bias", asm.R(rB), asm.R(rNH), asm.Imm(int32(bMain)))
	loadImm(&b, rW, int32(wM))
	loadImm(&b, rSz, int32(nh*nv))
	b.Opc(core.MLOAD, "load W (resident)", asm.R(rW), asm.R(rSz), asm.Imm(int32(wMain)))

	loadImm(&b, rWv, int32(wvV))
	loadImm(&b, rLh, int32(lhV))
	loadImm(&b, rLh2, int32(lhV+fixed.Bytes(half)))
	loadImm(&b, rP, int32(pV))
	loadImm(&b, rR, int32(rV))
	loadImm(&b, rTmp, int32(tmpV))
	loadImm(&b, rLTile, int32(lTileM))
	loadImm(&b, rPCur, int32(pMain))
	loadImm(&b, rRCur, int32(rMain))
	loadImm(&b, rSteps, int32(steps))

	top := b.NewLabel("gibbs")
	b.Label(top)
	b.Opc(core.MMV, "Wv", asm.R(rWv), asm.R(rNH), asm.R(rW), asm.R(rv), asm.R(rNV))
	b.Comment("L exceeds remaining scratchpad: stream it in half-matrix tiles")
	loadImm(&b, rSz, int32(half*nh))
	b.Opc(core.MLOAD, "L rows 0..%d", asm.R(rLTile), asm.R(rSz), asm.Imm(int32(lMain)))
	b.Opc(core.MMV, "Lh (low half)", asm.R(rLh), asm.R(rHalf), asm.R(rLTile), asm.R(rh), asm.R(rNH))
	b.Opc(core.MLOAD, "L rows %d..%d", asm.R(rLTile), asm.R(rSz), asm.Imm(int32(lMain+fixed.Bytes(half*nh))))
	b.Opc(core.MMV, "Lh (high half)", asm.R(rLh2), asm.R(rHalf), asm.R(rLTile), asm.R(rh), asm.R(rNH))
	b.Opc(core.VAV, "Wv + Lh", asm.R(rP), asm.R(rNH), asm.R(rWv), asm.R(rLh))
	b.Opc(core.VAV, "+ bias", asm.R(rP), asm.R(rNH), asm.R(rP), asm.R(rB))
	emitSigmoid(&b, rP, rP, sigmoidRegs{size: rNH, tmp: rTmp})
	b.Opc(core.VSTORE, "record p_t", asm.R(rP), asm.R(rNH), asm.R(rPCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rPCur), asm.R(rPCur), asm.Imm(int32(fixed.Bytes(nh))))
	b.Opc(core.RV, "r ~ U[0,1)", asm.R(rR), asm.R(rNH))
	b.Opc(core.VSTORE, "record r_t", asm.R(rR), asm.R(rNH), asm.R(rRCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rRCur), asm.R(rRCur), asm.Imm(int32(fixed.Bytes(nh))))
	b.Opc(core.VGT, "h = (r > p) ? 1 : 0", asm.R(rh), asm.R(rNH), asm.R(rR), asm.R(rP))
	b.Op(core.SADD, asm.R(rSteps), asm.R(rSteps), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(top), asm.R(rSteps))

	b.Opc(core.VSTORE, "store final hidden state", asm.R(rh), asm.R(rNH), asm.Imm(int32(hOutMain)))

	prog, err := finish("BM", &b, g)
	if err != nil {
		return nil, err
	}
	prog.Checks = append(prog.Checks, bmCheck(net, v, h0, steps, pMain, rMain, hOutMain))
	return prog, nil
}

// bmCheck validates the Gibbs chain: probabilities against the float
// reference, thresholds bit-exactly on the accelerator's own values.
func bmCheck(net *nn.BM, v, h0 nn.Vec, steps, pMain, rMain, hOutMain int) func(*sim.Machine) error {
	return func(m *sim.Machine) error {
		h := append(nn.Vec(nil), h0...)
		nh := net.H
		wv := net.W.MulVec(v) // v is clamped for the whole chain
		for t := 0; t < steps; t++ {
			pSim, err := m.ReadMainNums(pMain+t*fixed.Bytes(nh), nh)
			if err != nil {
				return err
			}
			rSim, err := m.ReadMainNums(rMain+t*fixed.Bytes(nh), nh)
			if err != nil {
				return err
			}
			pRef := net.HiddenProbWv(wv, h)
			for i := range pRef {
				// Compare against the saturating sigmoid the datapath
				// actually computes.
				want := nn.SigmoidSat(logit(pRef[i]))
				if d := math.Abs(pSim[i].Float() - want); d > bmProbTol {
					return fmt.Errorf("step %d: p[%d] = %v, want %v (err %.4f)",
						t, i, pSim[i].Float(), want, d)
				}
			}
			for i := range h {
				if rSim[i] > pSim[i] {
					h[i] = 1
				} else {
					h[i] = 0
				}
			}
		}
		got, err := m.ReadMainNums(hOutMain, nh)
		if err != nil {
			return err
		}
		for i, gv := range fixed.Floats(got) {
			if gv != h[i] {
				return fmt.Errorf("final h[%d] = %v, want %v", i, gv, h[i])
			}
		}
		return nil
	}
}

// logit inverts the sigmoid for the saturation-aware comparison.
func logit(p float64) float64 {
	const eps = 1e-12
	p = math.Min(math.Max(p, eps), 1-eps)
	return math.Log(p / (1 - p))
}

// binaryVec draws a uniform 0/1 vector.
func binaryVec(rng *nn.RNG, n int) nn.Vec {
	v := make(nn.Vec, n)
	for i := range v {
		if rng.Float64() < 0.5 {
			v[i] = 1
		}
	}
	return v
}

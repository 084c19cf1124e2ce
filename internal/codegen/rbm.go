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

// GenRBM lowers the Table III restricted Boltzmann machine benchmark
// (V(500)-H(500)): workload.GibbsSteps alternating Gibbs steps — the hidden
// update p(h|v) = sigmoid(W v + bh) via MMV and the tied-weight visible
// update p(v|h) = sigmoid(W^T h + bv) via VMM (no transpose in memory,
// Section III-A), each followed by RV/VGT sampling. Without the lateral
// matrix, W stays resident and no tiling is needed — the structural
// contrast with GenBM.
func GenRBM(seed uint64) (*Program, error) {
	nv, nh := nn.BMBenchmark()
	net := nn.NewRBM(nv, nh, seed).QuantizeParams()
	rng := nn.NewRNG(seed + 1)
	v0 := binaryVec(rng, nv)
	steps := workload.GibbsSteps

	g := newGen()
	var b asm.Builder

	vMain := g.data(v0)
	wMain := g.data(net.W.Data)
	bhMain := g.data(net.BH)
	bvMain := g.data(net.BV)
	phMain := g.outAddr("hidden probabilities", steps*nh)
	rhMain := g.outAddr("hidden draws", steps*nh)
	pvMain := g.outAddr("visible probabilities", steps*nv)
	rvMain := g.outAddr("visible draws", steps*nv)
	hOutMain := g.outAddr("final hidden state", nh)
	vOutMain := g.outAddr("final visible state", nv)

	wM := g.mspadA.takeElems(nh * nv)
	vV := g.vspadA.takeElems(nv)
	hV := g.vspadA.takeElems(nh)
	bhV := g.vspadA.takeElems(nh)
	bvV := g.vspadA.takeElems(nv)
	pV := g.vspadA.takeElems(nv) // shared probability buffer (nv >= nh)
	rV := g.vspadA.takeElems(nv)
	tmpV := g.vspadA.takeElems(nv)

	const (
		rNV    = 0
		rNH    = 1
		rSz    = 2
		rv     = 3
		rh     = 4
		rBH    = 5
		rBV    = 6
		rP     = 7
		rR     = 8
		rTmp   = 9
		rW     = 10
		rPhCur = 11
		rRhCur = 12
		rPvCur = 13
		rRvCur = 14
		rSteps = 15
	)

	b.Comment("RBM V(%d)-H(%d), %d alternating Gibbs steps (Table III)", nv, nh, steps)
	loadImm(&b, rNV, int32(nv))
	loadImm(&b, rNH, int32(nh))
	loadImm(&b, rv, int32(vV))
	b.Opc(core.VLOAD, "load visible vector", asm.R(rv), asm.R(rNV), asm.Imm(int32(vMain)))
	loadImm(&b, rBH, int32(bhV))
	b.Opc(core.VLOAD, "load hidden bias", asm.R(rBH), asm.R(rNH), asm.Imm(int32(bhMain)))
	loadImm(&b, rBV, int32(bvV))
	b.Opc(core.VLOAD, "load visible bias", asm.R(rBV), asm.R(rNV), asm.Imm(int32(bvMain)))
	loadImm(&b, rW, int32(wM))
	loadImm(&b, rSz, int32(nh*nv))
	b.Opc(core.MLOAD, "load W (resident, no lateral matrix)", asm.R(rW), asm.R(rSz), asm.Imm(int32(wMain)))

	loadImm(&b, rh, int32(hV))
	loadImm(&b, rP, int32(pV))
	loadImm(&b, rR, int32(rV))
	loadImm(&b, rTmp, int32(tmpV))
	loadImm(&b, rPhCur, int32(phMain))
	loadImm(&b, rRhCur, int32(rhMain))
	loadImm(&b, rPvCur, int32(pvMain))
	loadImm(&b, rRvCur, int32(rvMain))
	loadImm(&b, rSteps, int32(steps))

	top := b.NewLabel("gibbs")
	b.Label(top)
	b.Comment("hidden update: p(h|v) = sigmoid(W v + bh)")
	b.Opc(core.MMV, "W v", asm.R(rP), asm.R(rNH), asm.R(rW), asm.R(rv), asm.R(rNV))
	b.Op(core.VAV, asm.R(rP), asm.R(rNH), asm.R(rP), asm.R(rBH))
	emitSigmoid(&b, rP, rP, sigmoidRegs{size: rNH, tmp: rTmp})
	b.Opc(core.VSTORE, "record p(h)", asm.R(rP), asm.R(rNH), asm.R(rPhCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rPhCur), asm.R(rPhCur), asm.Imm(int32(fixed.Bytes(nh))))
	b.Op(core.RV, asm.R(rR), asm.R(rNH))
	b.Opc(core.VSTORE, "record draws", asm.R(rR), asm.R(rNH), asm.R(rRhCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rRhCur), asm.R(rRhCur), asm.Imm(int32(fixed.Bytes(nh))))
	b.Opc(core.VGT, "h = (r > p)", asm.R(rh), asm.R(rNH), asm.R(rR), asm.R(rP))

	b.Comment("visible update: p(v|h) = sigmoid(W^T h + bv), tied weights via VMM")
	b.Opc(core.VMM, "W^T h", asm.R(rP), asm.R(rNV), asm.R(rW), asm.R(rh), asm.R(rNH))
	b.Op(core.VAV, asm.R(rP), asm.R(rNV), asm.R(rP), asm.R(rBV))
	emitSigmoid(&b, rP, rP, sigmoidRegs{size: rNV, tmp: rTmp})
	b.Opc(core.VSTORE, "record p(v)", asm.R(rP), asm.R(rNV), asm.R(rPvCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rPvCur), asm.R(rPvCur), asm.Imm(int32(fixed.Bytes(nv))))
	b.Op(core.RV, asm.R(rR), asm.R(rNV))
	b.Opc(core.VSTORE, "record draws", asm.R(rR), asm.R(rNV), asm.R(rRvCur), asm.Imm(0))
	b.Op(core.SADD, asm.R(rRvCur), asm.R(rRvCur), asm.Imm(int32(fixed.Bytes(nv))))
	b.Opc(core.VGT, "v = (r > p)", asm.R(rv), asm.R(rNV), asm.R(rR), asm.R(rP))

	b.Op(core.SADD, asm.R(rSteps), asm.R(rSteps), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(top), asm.R(rSteps))

	b.Opc(core.VSTORE, "store final hidden state", asm.R(rh), asm.R(rNH), asm.Imm(int32(hOutMain)))
	b.Opc(core.VSTORE, "store final visible state", asm.R(rv), asm.R(rNV), asm.Imm(int32(vOutMain)))

	prog, err := finish("RBM", &b, g)
	if err != nil {
		return nil, err
	}
	prog.Checks = append(prog.Checks,
		rbmGibbsCheck(net, v0, steps, phMain, rhMain, pvMain, rvMain, hOutMain, vOutMain))
	return prog, nil
}

// rbmGibbsCheck replays the alternating chain: probabilities against the
// float reference, thresholds bit-exactly on the accelerator's own values.
func rbmGibbsCheck(net *nn.RBM, v0 nn.Vec, steps, phMain, rhMain, pvMain, rvMain, hOutMain, vOutMain int) func(Outputs) error {
	return func(out Outputs) error {
		nv, nh := net.V, net.H
		v := append(nn.Vec(nil), v0...)
		h := make(nn.Vec, nh)
		for t := 0; t < steps; t++ {
			pSim, err := out.ReadNums(phMain+t*fixed.Bytes(nh), nh)
			if err != nil {
				return err
			}
			rSim, err := out.ReadNums(rhMain+t*fixed.Bytes(nh), nh)
			if err != nil {
				return err
			}
			pRef := net.HiddenProb(v)
			for i := range pRef {
				want := nn.SigmoidSat(logit(pRef[i]))
				if d := math.Abs(pSim[i].Float() - want); d > bmProbTol {
					return fmt.Errorf("step %d: p(h)[%d] = %v, want %v (err %.4f)",
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
			pvSim, err := out.ReadNums(pvMain+t*fixed.Bytes(nv), nv)
			if err != nil {
				return err
			}
			rvSim, err := out.ReadNums(rvMain+t*fixed.Bytes(nv), nv)
			if err != nil {
				return err
			}
			vRef := net.VisibleProb(h)
			for i := range vRef {
				want := nn.SigmoidSat(logit(vRef[i]))
				if d := math.Abs(pvSim[i].Float() - want); d > bmProbTol {
					return fmt.Errorf("step %d: p(v)[%d] = %v, want %v (err %.4f)",
						t, i, pvSim[i].Float(), want, d)
				}
			}
			for i := range v {
				if rvSim[i] > pvSim[i] {
					v[i] = 1
				} else {
					v[i] = 0
				}
			}
		}
		gotH, err := out.ReadNums(hOutMain, nh)
		if err != nil {
			return err
		}
		for i, gv := range fixed.Floats(gotH) {
			if gv != h[i] {
				return fmt.Errorf("final h[%d] = %v, want %v", i, gv, h[i])
			}
		}
		gotV, err := out.ReadNums(vOutMain, nv)
		if err != nil {
			return err
		}
		for i, gv := range fixed.Floats(gotV) {
			if gv != v[i] {
				return fmt.Errorf("final v[%d] = %v, want %v", i, gv, v[i])
			}
		}
		return nil
	}
}

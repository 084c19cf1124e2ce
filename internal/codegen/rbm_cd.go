package codegen

import (
	"fmt"
	"math"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/nn"
)

// GenRBMCD is an extension beyond the Table III benchmark set: one full
// contrastive-divergence training step on the RBM — hidden
// probabilities and sampling, tied-weight reconstruction via VMM, the
// negative phase, and the CD-1 weight update from OP/MMS/MAM/MSM, tiled
// into half-matrices because W plus a full outer product would exceed the
// matrix scratchpad.
func GenRBMCD(seed uint64) (*Program, error) {
	nv, nh := nn.BMBenchmark()
	net := nn.NewRBM(nv, nh, seed).QuantizeParams()
	rng := nn.NewRNG(seed + 1)
	v0 := binaryVec(rng, nv)

	g := newGen()
	var b asm.Builder

	vMain := g.data(v0)
	wMain := g.data(net.W.Data)
	bhMain := g.data(net.BH)
	bvMain := g.data(net.BV)
	p0Main := g.outAddr("p0", nh)
	r0Main := g.outAddr("r0", nh)
	v1Main := g.outAddr("v1", nv)
	h1Main := g.outAddr("h1", nh)
	wOutMain := g.outAddr("updated W", nh*nv)

	half := nh / 2
	wM := g.mspadA.takeElems(nh * nv)
	tileM := g.mspadA.takeElems(half * nv)
	v0V := g.vspadA.takeElems(nv)
	v1V := g.vspadA.takeElems(nv)
	h0V := g.vspadA.takeElems(nh) // sampled
	p0V := g.vspadA.takeElems(nh)
	h1V := g.vspadA.takeElems(nh) // probabilities (negative phase)
	bhV := g.vspadA.takeElems(nh)
	bvV := g.vspadA.takeElems(nv)
	rV := g.vspadA.takeElems(nh)
	tmpV := g.vspadA.takeElems(nv)

	const (
		rNV   = 0
		rNH   = 1
		rHalf = 2
		rSz   = 3
		rV0   = 4
		rV1   = 5
		rH0   = 6
		rP0   = 7
		rH1   = 8
		rBH   = 9
		rBV   = 10
		rR    = 11
		rTmp  = 12
		rW    = 13
		rWHi  = 14 // W upper-half base (rows nh/2..nh)
		rTile = 15
		rSeg  = 16 // vector segment cursor
	)

	b.Comment("RBM V(%d)-H(%d), one CD-1 step (Table III)", nv, nh)
	loadImm(&b, rNV, int32(nv))
	loadImm(&b, rNH, int32(nh))
	loadImm(&b, rHalf, int32(half))
	loadImm(&b, rV0, int32(v0V))
	b.Opc(core.VLOAD, "load v0", asm.R(rV0), asm.R(rNV), asm.Imm(int32(vMain)))
	loadImm(&b, rBH, int32(bhV))
	b.Opc(core.VLOAD, "load hidden bias", asm.R(rBH), asm.R(rNH), asm.Imm(int32(bhMain)))
	loadImm(&b, rBV, int32(bvV))
	b.Opc(core.VLOAD, "load visible bias", asm.R(rBV), asm.R(rNV), asm.Imm(int32(bvMain)))
	loadImm(&b, rW, int32(wM))
	loadImm(&b, rSz, int32(nh*nv))
	b.Opc(core.MLOAD, "load W (resident)", asm.R(rW), asm.R(rSz), asm.Imm(int32(wMain)))
	loadImm(&b, rWHi, int32(wM+fixed.Bytes(half*nv)))

	loadImm(&b, rP0, int32(p0V))
	loadImm(&b, rH0, int32(h0V))
	loadImm(&b, rH1, int32(h1V))
	loadImm(&b, rV1, int32(v1V))
	loadImm(&b, rR, int32(rV))
	loadImm(&b, rTmp, int32(tmpV))
	loadImm(&b, rTile, int32(tileM))

	b.Comment("positive phase: p(h|v0)")
	b.Opc(core.MMV, "W v0", asm.R(rP0), asm.R(rNH), asm.R(rW), asm.R(rV0), asm.R(rNV))
	b.Op(core.VAV, asm.R(rP0), asm.R(rNH), asm.R(rP0), asm.R(rBH))
	emitSigmoid(&b, rP0, rP0, sigmoidRegs{size: rNH, tmp: rTmp})
	b.Opc(core.VSTORE, "record p0", asm.R(rP0), asm.R(rNH), asm.Imm(int32(p0Main)))
	b.Opc(core.RV, "draws", asm.R(rR), asm.R(rNH))
	b.Opc(core.VSTORE, "record r0", asm.R(rR), asm.R(rNH), asm.Imm(int32(r0Main)))
	b.Opc(core.VGT, "h0 = (r > p0)", asm.R(rH0), asm.R(rNH), asm.R(rR), asm.R(rP0))

	b.Comment("reconstruction: v1 = sigmoid(W^T h0 + bv)")
	b.Opc(core.VMM, "W^T h0", asm.R(rV1), asm.R(rNV), asm.R(rW), asm.R(rH0), asm.R(rNH))
	b.Op(core.VAV, asm.R(rV1), asm.R(rNV), asm.R(rV1), asm.R(rBV))
	emitSigmoid(&b, rV1, rV1, sigmoidRegs{size: rNV, tmp: rTmp})
	b.Opc(core.VSTORE, "record v1", asm.R(rV1), asm.R(rNV), asm.Imm(int32(v1Main)))

	b.Comment("negative phase: p(h|v1)")
	b.Opc(core.MMV, "W v1", asm.R(rH1), asm.R(rNH), asm.R(rW), asm.R(rV1), asm.R(rNV))
	b.Op(core.VAV, asm.R(rH1), asm.R(rNH), asm.R(rH1), asm.R(rBH))
	emitSigmoid(&b, rH1, rH1, sigmoidRegs{size: rNH, tmp: rTmp})
	b.Opc(core.VSTORE, "record h1", asm.R(rH1), asm.R(rNH), asm.Imm(int32(h1Main)))

	b.Comment("CD-1 update, tiled per half: W += eta (h0 (x) v0 - h1 (x) v1)")
	loadImm(&b, rSz, int32(half*nv))
	for halfIdx := 0; halfIdx < 2; halfIdx++ {
		wBase := uint8(rW)
		if halfIdx == 1 {
			wBase = rWHi
		}
		segOff := int32(fixed.Bytes(halfIdx * half))
		b.Comment("rows %d..%d", halfIdx*half, (halfIdx+1)*half)
		b.Opc(core.SADD, "h0 segment", asm.R(rSeg), asm.R(rH0), asm.Imm(segOff))
		b.Op(core.OP, asm.R(rTile), asm.R(rSeg), asm.R(rHalf), asm.R(rV0), asm.R(rNV))
		b.Op(core.MMS, asm.R(rTile), asm.R(rSz), asm.R(rTile), asm.Imm(fix(rbmEta)))
		b.Opc(core.MAM, "positive phase in", asm.R(wBase), asm.R(rSz), asm.R(wBase), asm.R(rTile))
		b.Opc(core.SADD, "h1 segment", asm.R(rSeg), asm.R(rH1), asm.Imm(segOff))
		b.Op(core.OP, asm.R(rTile), asm.R(rSeg), asm.R(rHalf), asm.R(rV1), asm.R(rNV))
		b.Op(core.MMS, asm.R(rTile), asm.R(rSz), asm.R(rTile), asm.Imm(fix(rbmEta)))
		b.Opc(core.MSM, "negative phase out", asm.R(wBase), asm.R(rSz), asm.R(wBase), asm.R(rTile))
	}
	loadImm(&b, rSz, int32(nh*nv))
	b.Opc(core.MSTORE, "store updated W", asm.R(rW), asm.R(rSz), asm.Imm(int32(wOutMain)))

	prog, err := finish("RBM-CD", &b, g)
	if err != nil {
		return nil, err
	}
	prog.Checks = append(prog.Checks, rbmCheck(net, v0, p0Main, r0Main, v1Main, h1Main, wOutMain))
	return prog, nil
}

// rbmCheck validates the CD-1 chain stage by stage, thresholding on the
// accelerator's own values so sampling never cascades into false failures.
func rbmCheck(net *nn.RBM, v0 nn.Vec, p0Main, r0Main, v1Main, h1Main, wOutMain int) func(Outputs) error {
	return func(out Outputs) error {
		nv, nh := net.V, net.H
		p0Sim, err := out.ReadNums(p0Main, nh)
		if err != nil {
			return err
		}
		r0Sim, err := out.ReadNums(r0Main, nh)
		if err != nil {
			return err
		}
		p0Ref := net.HiddenProb(v0)
		for i := range p0Ref {
			want := nn.SigmoidSat(logit(p0Ref[i]))
			if d := math.Abs(p0Sim[i].Float() - want); d > bmProbTol {
				return fmt.Errorf("p0[%d] = %v, want %v", i, p0Sim[i].Float(), want)
			}
		}
		h0 := make(nn.Vec, nh)
		for i := range h0 {
			if r0Sim[i] > p0Sim[i] {
				h0[i] = 1
			}
		}
		v1Sim, err := out.ReadNums(v1Main, nv)
		if err != nil {
			return err
		}
		v1Ref := net.VisibleProb(h0)
		for i := range v1Ref {
			want := nn.SigmoidSat(logit(v1Ref[i]))
			if d := math.Abs(v1Sim[i].Float() - want); d > bmProbTol {
				return fmt.Errorf("v1[%d] = %v, want %v", i, v1Sim[i].Float(), want)
			}
		}
		v1 := fixed.Floats(v1Sim)
		h1Sim, err := out.ReadNums(h1Main, nh)
		if err != nil {
			return err
		}
		h1Ref := net.HiddenProb(v1)
		for i := range h1Ref {
			want := nn.SigmoidSat(logit(h1Ref[i]))
			if d := math.Abs(h1Sim[i].Float() - want); d > bmProbTol {
				return fmt.Errorf("h1[%d] = %v, want %v", i, h1Sim[i].Float(), want)
			}
		}
		h1 := fixed.Floats(h1Sim)
		wSim, err := out.ReadNums(wOutMain, nh*nv)
		if err != nil {
			return err
		}
		for i := 0; i < nh; i++ {
			for j := 0; j < nv; j++ {
				want := net.W.At(i, j) + rbmEta*(h0[i]*v0[j]-h1[i]*v1[j])
				got := wSim[i*nv+j].Float()
				if d := math.Abs(got - want); d > rbmWTol {
					return fmt.Errorf("W'[%d,%d] = %v, want %v (err %.4f)", i, j, got, want, d)
				}
			}
		}
		return nil
	}
}

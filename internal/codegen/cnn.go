package codegen

import (
	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/nn"
)

// CNNTolerance bounds the fixed-point error of the full LeNet-5 pipeline
// (two conv+pool stages and three FC layers).
const CNNTolerance = 0.12

// cnnRegs is the register window shared by the matrix-building,
// convolution, pooling and FC stage emitters (stages run sequentially, so
// one window suffices — exactly how hand-written Cambricon assembly would
// budget its 64 GPRs).
type cnnRegs struct {
	rCols  uint8 // banded matrix columns K*InW*InC / FC input size
	rOutC  uint8 // output channels / FC output size
	rBlk   uint8 // banded matrix block size
	rW     uint8 // even banded matrix / FC weight address (mspad)
	rWOdd  uint8 // odd banded matrix address (mspad)
	rBias  uint8 // bias vector address (vspad)
	rRow   uint8 // input band / first pooled conv row
	rSrc   uint8 // block copy source / second pooled conv row
	rDst   uint8 // block copy destination / odd half of the output row
	rOut   uint8 // output write cursor
	rX     uint8 // inner loop counter
	rY     uint8 // outer loop counter
	rTmp   uint8 // sigmoid and pooling scratch region
	rTmpHi uint8 // odd half of the pooling scratch row
	rP     uint8 // bias tile cursor
	rRowN  uint8 // output-row element count
	rHalfN uint8 // half-row element count
	rBT    uint8 // tiled (row-wide) bias base address
}

func newCNNRegs() cnnRegs {
	return cnnRegs{
		rCols: 0, rOutC: 1, rBlk: 2, rW: 3, rBias: 4, rWOdd: 5, rHalfN: 6,
		rRow: 7, rSrc: 8, rOut: 9, rX: 10, rY: 11, rTmp: 12, rP: 13,
		rDst: 15, rTmpHi: 16, rRowN: 17, rBT: 18,
	}
}

// bandCols is the width of a banded convolution matrix: the K input rows
// one output row reads, which with stride 1 and the [y][x][c] layout are
// one contiguous band of K*InW*InC elements.
func bandCols(l nn.ConvLayer) int { return l.K * l.InW * l.InC }

// bandBlock returns the first block of a banded convolution matrix, the
// rows of output position x0: row oc holds filter oc at columns
// ky*InW*InC + (x0+kx)*InC + ic and zeros elsewhere. 2*InC zeros follow
// the block, for the copy that builds the next one (emitBandedMatrix).
func bandBlock(l nn.ConvLayer, x0 int) []float64 {
	cols := bandCols(l)
	seg := l.K * l.InC // one filter row: [kx][ic]
	blk := make([]float64, l.OutC*cols+2*l.InC)
	for oc := 0; oc < l.OutC; oc++ {
		f := l.W.Row(oc)
		for ky := 0; ky < l.K; ky++ {
			copy(blk[oc*cols+ky*l.InW*l.InC+x0*l.InC:], f[ky*seg:(ky+1)*seg])
		}
	}
	return blk
}

// bandedMatrixElems is the matrix scratchpad one banded matrix takes:
// (OutW/2*OutC) x K*InW*InC, plus the 2*InC elements the last block
// copy spills past its end.
func bandedMatrixElems(l nn.ConvLayer) int {
	return l.OutW()/2*l.OutC*bandCols(l) + 2*l.InC
}

// emitBandedMatrix builds one banded convolution matrix at mspad address
// mAddr from its first block at main address blockMain (bandBlock). Rows
// j*OutC .. (j+1)*OutC-1 form block j, the filters at output position
// x0 + 2j; that block is block j-1 shifted right by 2*InC columns. So one
// MLOAD brings in block 0 and its 2*InC trailing zeros, and each MMOVE
// copies the previous block to an offset of one block plus 2*InC
// elements. No nonzero crosses a row end, because x + K <= InW at every
// output position x: what a copy moves across a row end, or spills past
// its block, is zeros, and the spill is the next block's leading zeros.
func emitBandedMatrix(b *asm.Builder, r cnnRegs, l nn.ConvLayer, mAddr, blockMain int) {
	blk := l.OutC * bandCols(l)
	stride := fixed.Bytes(blk + 2*l.InC)
	loadImm(b, r.rBlk, int32(blk+2*l.InC))
	loadImm(b, r.rSrc, int32(mAddr))
	b.Opc(core.MLOAD, "first block and its zero spill", asm.R(r.rSrc), asm.R(r.rBlk), asm.Imm(int32(blockMain)))
	loadImm(b, r.rBlk, int32(blk))
	loadImm(b, r.rDst, int32(mAddr+stride))
	loadImm(b, r.rX, int32(l.OutW()/2-1))
	top := b.NewLabel("band_block")
	b.Label(top)
	b.Opc(core.MMOVE, "next block: two positions right", asm.R(r.rDst), asm.R(r.rBlk), asm.R(r.rSrc))
	b.Op(core.SMOVE, asm.R(r.rSrc), asm.R(r.rDst))
	b.Op(core.SADD, asm.R(r.rDst), asm.R(r.rDst), asm.Imm(int32(stride)))
	b.Op(core.SADD, asm.R(r.rX), asm.R(r.rX), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(top), asm.R(r.rX))
}

// emitConv lowers one valid stride-1 convolution with sigmoid activation
// to two banded MMVs per output row (emitBandedMatrix): the even matrix
// at wEven computes the row's even output positions from its input band,
// the odd matrix at wOdd the odd ones. Each output row is stored as
// [even half | odd half], OutW/2*OutC elements each, in [x][c] order
// within a half. The per-channel bias, tiled across a row, repeats every
// OutC elements, so it fits that layout too: bias-add and the sigmoid
// chain run once per output row, keeping the vector unit's CORDIC beats
// amortized over OutW*OutC elements.
func emitConv(b *asm.Builder, r cnnRegs, l nn.ConvLayer, inBase, outBase, wEven, wOdd, biasV, tiledBiasV, tmpV int) {
	outH, outW := l.OutH(), l.OutW()
	if outW%2 != 0 {
		panic("codegen: emitConv requires an even output width")
	}
	elem := 2 // bytes per element
	rowN := outW * l.OutC
	b.Comment("conv %dx%dx%d -> %dx%dx%d (K=%d): two banded MMVs per output row",
		l.InH, l.InW, l.InC, outH, outW, l.OutC, l.K)
	loadImm(b, r.rCols, int32(bandCols(l)))
	loadImm(b, r.rOutC, int32(l.OutC))
	loadImm(b, r.rHalfN, int32(rowN/2))
	loadImm(b, r.rRowN, int32(rowN))
	loadImm(b, r.rW, int32(wEven))
	loadImm(b, r.rWOdd, int32(wOdd))
	loadImm(b, r.rTmp, int32(tmpV))
	b.Comment("tile the per-channel bias across one output row")
	loadImm(b, r.rBias, int32(biasV))
	loadImm(b, r.rBT, int32(tiledBiasV))
	loadImm(b, r.rP, int32(tiledBiasV))
	loadImm(b, r.rX, int32(outW))
	tileTop := b.NewLabel("bias_tile")
	b.Label(tileTop)
	b.Op(core.VMOVE, asm.R(r.rP), asm.R(r.rOutC), asm.R(r.rBias))
	b.Op(core.SADD, asm.R(r.rP), asm.R(r.rP), asm.Imm(int32(l.OutC*elem)))
	b.Op(core.SADD, asm.R(r.rX), asm.R(r.rX), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(tileTop), asm.R(r.rX))

	loadImm(b, r.rRow, int32(inBase))
	loadImm(b, r.rOut, int32(outBase))
	loadImm(b, r.rY, int32(outH))
	yTop := b.NewLabel("conv_y")
	b.Label(yTop)
	b.Opc(core.MMV, "even output positions from the input band",
		asm.R(r.rOut), asm.R(r.rHalfN), asm.R(r.rW), asm.R(r.rRow), asm.R(r.rCols))
	b.Op(core.SADD, asm.R(r.rDst), asm.R(r.rOut), asm.Imm(int32(rowN/2*elem)))
	b.Opc(core.MMV, "odd output positions from the same band",
		asm.R(r.rDst), asm.R(r.rHalfN), asm.R(r.rWOdd), asm.R(r.rRow), asm.R(r.rCols))
	b.Opc(core.VAV, "row-wide bias add", asm.R(r.rOut), asm.R(r.rRowN), asm.R(r.rOut), asm.R(r.rBT))
	emitSigmoid(b, r.rOut, r.rOut, sigmoidRegs{size: r.rRowN, tmp: r.rTmp})
	b.Opc(core.SADD, "next input band: one input row down",
		asm.R(r.rRow), asm.R(r.rRow), asm.Imm(int32(l.InW*l.InC*elem)))
	b.Op(core.SADD, asm.R(r.rOut), asm.R(r.rOut), asm.Imm(int32(rowN*elem)))
	b.Op(core.SADD, asm.R(r.rY), asm.R(r.rY), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(yTop), asm.R(r.rY))
}

// emitPool lowers non-overlapping 2x2 max pooling of a conv map whose
// rows are [even half | odd half] (emitConv) into a [y][x][c] map, with
// two VGTMs per pooled row, after the paper's Fig. 7 pooling fragment:
// one merges the two conv rows of the window band element by element,
// the other merges that row's even half with its odd half, which puts
// positions 2x and 2x+1 of every channel side by side.
func emitPool(b *asm.Builder, r cnnRegs, l nn.PoolLayer, inBase, outBase, tmpV int) {
	if l.K != 2 || l.InW%2 != 0 {
		panic("codegen: emitPool lowers 2x2 pooling over even-width maps")
	}
	outH := l.OutH()
	elem := 2
	rowN := l.InW * l.C
	b.Comment("max pool %dx%dx%d -> %dx%dx%d (K=%d)", l.InH, l.InW, l.C, outH, l.OutW(), l.C, l.K)
	loadImm(b, r.rRowN, int32(rowN))
	loadImm(b, r.rHalfN, int32(rowN/2))
	loadImm(b, r.rTmp, int32(tmpV))
	loadImm(b, r.rTmpHi, int32(tmpV+rowN/2*elem))
	loadImm(b, r.rRow, int32(inBase))
	loadImm(b, r.rOut, int32(outBase))
	loadImm(b, r.rY, int32(outH))
	yTop := b.NewLabel("pool_y")
	b.Label(yTop)
	b.Op(core.SADD, asm.R(r.rSrc), asm.R(r.rRow), asm.Imm(int32(rowN*elem)))
	b.Opc(core.VGTM, "merge the window band's two conv rows",
		asm.R(r.rTmp), asm.R(r.rRowN), asm.R(r.rRow), asm.R(r.rSrc))
	b.Opc(core.VGTM, "merge even positions with odd",
		asm.R(r.rOut), asm.R(r.rHalfN), asm.R(r.rTmp), asm.R(r.rTmpHi))
	b.Op(core.SADD, asm.R(r.rRow), asm.R(r.rRow), asm.Imm(int32(2*rowN*elem)))
	b.Op(core.SADD, asm.R(r.rOut), asm.R(r.rOut), asm.Imm(int32(rowN/2*elem)))
	b.Op(core.SADD, asm.R(r.rY), asm.R(r.rY), asm.Imm(-1))
	b.Op(core.CB, asm.Lbl(yTop), asm.R(r.rY))
}

// emitFC lowers one fully-connected sigmoid layer, reusing the conv
// register window.
func emitFC(b *asm.Builder, r cnnRegs, in, out, wSpad, biasV, inBase, outBase, tmpV int) {
	b.Comment("fully connected %d -> %d", in, out)
	loadImm(b, r.rCols, int32(in))
	loadImm(b, r.rOutC, int32(out))
	loadImm(b, r.rW, int32(wSpad))
	loadImm(b, r.rBias, int32(biasV))
	loadImm(b, r.rRow, int32(inBase))
	loadImm(b, r.rOut, int32(outBase))
	loadImm(b, r.rTmp, int32(tmpV))
	b.Op(core.MMV, asm.R(r.rOut), asm.R(r.rOutC), asm.R(r.rW), asm.R(r.rRow), asm.R(r.rCols))
	b.Op(core.VAV, asm.R(r.rOut), asm.R(r.rOutC), asm.R(r.rOut), asm.R(r.rBias))
	emitSigmoid(b, r.rOut, r.rOut, sigmoidRegs{size: r.rOutC, tmp: r.rTmp})
}

// lenet5 is the quantized LeNet-5 and its quantized 32x32 input image
// for one seed.
func lenet5(seed uint64) (*nn.CNN, nn.Vec) {
	net := nn.NewLeNet5(seed).QuantizeParams()
	input := nn.Quantize(nn.NewRNG(seed+1).FillVec(32*32, 0, 1))
	return net, input
}

// cnnLayout is where GenCNN keeps each stage's map in the vector
// scratchpad. The conv maps c1 and c2 hold each output row as [even
// positions | odd positions] (emitConv); the pooled maps are [y][x][c].
type cnnLayout struct {
	c1, p1, c2, p2, f1, f2, f3 int
}

// GenCNN lowers the Table III LeNet-5 benchmark. Each convolution runs
// two banded MMVs per output row (emitConv), over four matrices built on
// chip (emitBandedMatrix); they and the FC weights take 306 KB of the
// 768 KB matrix scratchpad. All feature maps fit the vector scratchpad
// simultaneously (under 20 KB of 64 KB).
func GenCNN(seed uint64) (*Program, error) {
	p, _, err := genCNN(seed)
	return p, err
}

// genCNN is GenCNN that also returns where each stage map lives, for
// the tests that read the maps.
func genCNN(seed uint64) (*Program, cnnLayout, error) {
	net, input := lenet5(seed)
	want := net.Forward(input)
	c1, c2 := net.Convs[0], net.Convs[1]

	g := newGen()
	var b asm.Builder
	r := newCNNRegs()

	inMain := g.data(input)
	// The first block of each banded matrix: [C1, C2] x [even, odd].
	var blockMain [2][2]int
	for i, l := range net.Convs {
		for odd := range blockMain[i] {
			blockMain[i][odd] = g.data(bandBlock(l, odd))
		}
	}
	c1bMain := g.data(c1.B)
	c2bMain := g.data(c2.B)
	fwMain := make([]int, 3)
	fbMain := make([]int, 3)
	for i, fc := range net.FCs {
		fwMain[i] = g.data(fc.W.Data)
		fbMain[i] = g.data(fc.B)
	}
	outMain := g.out("classifier output", len(want), want, CNNTolerance)

	// Vector scratchpad: all stage activations live simultaneously.
	in0V := g.vspadA.takeElems(32 * 32)
	lay := cnnLayout{
		c1: g.vspadA.takeElems(28 * 28 * 6),
		p1: g.vspadA.takeElems(14 * 14 * 6),
		c2: g.vspadA.takeElems(10 * 10 * 16),
		p2: g.vspadA.takeElems(5 * 5 * 16),
		f1: g.vspadA.takeElems(120),
		f2: g.vspadA.takeElems(84),
		f3: g.vspadA.takeElems(10),
	}
	tmpV := g.vspadA.takeElems(28 * 6) // widest sigmoid batch: one C1 row
	biasV := g.vspadA.takeElems(120)
	tiledBiasV := g.vspadA.takeElems(28 * 6)

	// Matrix scratchpad: all weights resident.
	var bandM [2][2]int
	for i, l := range net.Convs {
		for odd := range bandM[i] {
			bandM[i][odd] = g.mspadA.takeElems(bandedMatrixElems(l))
		}
	}
	fwM := []int{
		g.mspadA.takeElems(120 * 400),
		g.mspadA.takeElems(84 * 120),
		g.mspadA.takeElems(10 * 84),
	}

	const rSz = 14 // reusable size register for loads (outside cnnRegs)

	b.Comment("LeNet-5 (Table III CNN benchmark)")
	b.Comment("preload the input and build the banded conv matrices")
	loadImm(&b, rSz, 32*32)
	loadImm(&b, r.rRow, int32(in0V))
	b.Opc(core.VLOAD, "input image", asm.R(r.rRow), asm.R(rSz), asm.Imm(int32(inMain)))
	for i, l := range net.Convs {
		for odd := range bandM[i] {
			b.Comment("C%d %s-position matrix", i+1, [2]string{"even", "odd"}[odd])
			emitBandedMatrix(&b, r, l, bandM[i][odd], blockMain[i][odd])
		}
	}
	fcDims := [3][2]int{{400, 120}, {120, 84}, {84, 10}}

	loadImm(&b, rSz, 6)
	loadImm(&b, r.rBias, int32(biasV))
	b.Opc(core.VLOAD, "C1 bias", asm.R(r.rBias), asm.R(rSz), asm.Imm(int32(c1bMain)))
	emitConv(&b, r, c1, in0V, lay.c1, bandM[0][0], bandM[0][1], biasV, tiledBiasV, tmpV)
	b.Comment("preload the FC weights: the DMA holds the matrix unit while P1 pools on the vector unit")
	for i := range fwM {
		loadImm(&b, rSz, int32(fcDims[i][0]*fcDims[i][1]))
		loadImm(&b, r.rW, int32(fwM[i]))
		b.Op(core.MLOAD, asm.R(r.rW), asm.R(rSz), asm.Imm(int32(fwMain[i])))
	}
	emitPool(&b, r, net.Pools[0], lay.c1, lay.p1, tmpV)

	loadImm(&b, rSz, 16)
	loadImm(&b, r.rBias, int32(biasV))
	b.Opc(core.VLOAD, "C2 bias", asm.R(r.rBias), asm.R(rSz), asm.Imm(int32(c2bMain)))
	emitConv(&b, r, c2, lay.p1, lay.c2, bandM[1][0], bandM[1][1], biasV, tiledBiasV, tmpV)
	emitPool(&b, r, net.Pools[1], lay.c2, lay.p2, tmpV)

	fcIn := []int{lay.p2, lay.f1, lay.f2}
	fcOut := []int{lay.f1, lay.f2, lay.f3}
	for i := range net.FCs {
		loadImm(&b, rSz, int32(fcDims[i][1]))
		loadImm(&b, r.rBias, int32(biasV))
		b.Opc(core.VLOAD, "FC bias", asm.R(r.rBias), asm.R(rSz), asm.Imm(int32(fbMain[i])))
		emitFC(&b, r, fcDims[i][0], fcDims[i][1], fwM[i], biasV, fcIn[i], fcOut[i], tmpV)
	}

	loadImm(&b, rSz, 10)
	b.Opc(core.VSTORE, "store classifier output", asm.R(r.rOut), asm.R(rSz), asm.Imm(int32(outMain)))

	p, err := finish("CNN", &b, g)
	return p, lay, err
}

package sim

import (
	"fmt"

	"cambricon/internal/core"
	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/mem"
)

// space identifies which memory an access touches; the memory queue only
// serializes overlapping accesses within the same space.
type space uint8

const (
	spaceMain space = iota
	spaceVec
	spaceMat
)

// access is one memory region touched by an instruction.
type access struct {
	reg   mem.Region
	sp    space
	write bool
}

// accessSet is the memory regions one instruction touches, at most four,
// kept in a fixed array so recording a set never allocates. wmask and
// amask summarize it: bit sp of wmask is set when the set writes space
// sp, of amask when it touches space sp at all. add keeps them current.
type accessSet struct {
	regs  [4]access
	n     uint8
	wmask uint8
	amask uint8
}

// add appends one access to the set.
func (s *accessSet) add(a access) {
	s.regs[s.n] = a
	s.n++
	bit := uint8(1) << a.sp
	s.amask |= bit
	if a.write {
		s.wmask |= bit
	}
}

// list views the set's accesses.
func (s *accessSet) list() []access { return s.regs[:s.n] }

// conflicts reports whether two access sets contain a pair in the same
// space, overlapping, with at least one write — the paper's
// memory-dependence rule (footnote 2).
func (s *accessSet) conflicts(t *accessSet) bool {
	for _, x := range s.list() {
		for _, y := range t.list() {
			if x.sp == y.sp && (x.write || y.write) && x.reg.Overlaps(y.reg) {
				return true
			}
		}
	}
	return false
}

// fuKind routes an instruction to its execution resource (Fig. 8).
type fuKind uint8

const (
	fuScalar    fuKind = iota // scalar functional unit
	fuScalarMem               // scalar load/store via AGU + L1 cache
	fuVector                  // vector functional unit (and its DMAs)
	fuMatrix                  // matrix functional unit (and its DMAs)
)

// effect is what one executed instruction reports to the timing model.
// It is copyable by value and keeps the execution loop allocation-free.
type effect struct {
	fu           fuKind
	execCycles   int64
	acc          accessSet
	branchTaken  bool
	branchOffset int
	// isDMA marks scratchpad<->main-memory transfers (load/store DMAs);
	// dmaBytes is the transfer size. Consumed by the tracer to draw DMA
	// spans on their own timeline tracks.
	isDMA    bool
	dmaBytes int
}

func (e *effect) touch(sp space, addr, n int, write bool) {
	e.acc.add(access{reg: mem.Region{Addr: addr, N: n}, sp: sp, write: write})
}

// reset clears the effect for reuse. The access regions are deliberately
// left dirty: they are only ever read through list(), which views the
// first n, so zeroing them per dynamic instruction would be pure
// overhead — the reason the decoded loops call reset instead of
// assigning effect{}.
func (e *effect) reset() {
	e.fu = 0
	e.execCycles = 0
	e.acc.n, e.acc.wmask, e.acc.amask = 0, 0, 0
	e.branchTaken = false
	e.branchOffset = 0
	e.isDMA = false
	e.dmaBytes = 0
}

// ceilDiv rounds a/b up. b is always positive here by construction:
// Config.validate rejects or defaults every divisor the timing model uses
// (VectorLanes, MatrixBlocks, MACsPerBlock, BankBytes), so no silent
// clamping is needed on this hot path.
func ceilDiv(a, b int) int64 {
	return int64((a + b - 1) / b)
}

// vecCycles models a vector-unit operation of n elements with the given
// per-beat cost over the supplied scratchpad access regions, charging
// crossbar serialization beyond the longest ideal stream to the
// bank-conflict counter.
func (m *Machine) vecCycles(n int, beatCost int, regions []access) int64 {
	beats := ceilDiv(n, m.cfg.VectorLanes) * int64(beatCost)
	var regionBuf [4]mem.Region
	spadRegions := regionBuf[:0]
	ideal := 0
	for _, a := range regions {
		if a.sp != spaceVec || a.reg.N <= 0 {
			continue
		}
		spadRegions = append(spadRegions, a.reg)
		lines := (a.reg.N + m.cfg.BankBytes - 1) / m.cfg.BankBytes
		if lines > ideal {
			ideal = lines
		}
	}
	conflict := int64(m.vspad.AccessCycles(spadRegions))
	if extra := conflict - int64(ideal); extra > 0 {
		m.stats.BankConflictCycles += extra
	}
	if conflict > beats {
		return conflict
	}
	return beats
}

// matCycles models a matrix-vector-shaped operation streaming rows across
// the 32 blocks and columns across each block's 32 MACs, plus the h-tree
// overhead.
func (m *Machine) matCycles(rows, cols int) int64 {
	beats := ceilDiv(rows, m.cfg.MatrixBlocks) * ceilDiv(cols, m.cfg.MACsPerBlock)
	return int64(m.cfg.HTreeOverhead) + beats
}

// matElemCycles models an element-wise matrix operation: all MACs of all
// blocks work in parallel over the flat element stream.
func (m *Machine) matElemCycles(n int) int64 {
	beats := ceilDiv(n, m.cfg.MatrixBlocks*m.cfg.MACsPerBlock)
	return int64(m.cfg.HTreeOverhead) + beats
}

// applyStuck imposes the injector's persistent stuck-at lane fault (if
// any) on a functional unit's output: element i is produced by lane
// i mod lanes, so every element of the stuck lane has the stuck bit
// forced. Called just before results are stored; with no injector and
// no access trace attached this is two branches. An access trace
// records how far the output reaches (AccessTrace.reach): a stuck lane
// changes the output exactly when it is below len(out).
func (m *Machine) applyStuck(unit fault.Unit, out []fixed.Num) {
	if m.rec != nil {
		m.rec.reach(unit, m.stats.Instructions, len(out))
	}
	if m.inj == nil {
		return
	}
	st, ok := m.inj.StuckLane(unit)
	if !ok {
		return
	}
	lanes := m.cfg.unitLanes(unit)
	lane := laneIndex(st.Lane, lanes)
	if lane >= len(out) {
		return
	}
	mask := fixed.Num(1) << (st.Bit % 16)
	for i := lane; i < len(out); i += lanes {
		if st.Val == 0 {
			out[i] &^= mask
		} else {
			out[i] |= mask
		}
	}
	m.noteFault("stuck-lane")
}

// unitLanes is the lane count of unit's outputs: 32 vector lanes, or
// one lane per MAC of the matrix unit's blocks.
func (c *Config) unitLanes(unit fault.Unit) int {
	if unit == fault.UnitMatrix {
		return c.MatrixBlocks * c.MACsPerBlock
	}
	return c.VectorLanes
}

// laneIndex reduces a stuck lane modulo the unit's lane count, into
// [0, lanes).
func laneIndex(lane, lanes int) int {
	lane %= lanes
	if lane < 0 {
		lane += lanes
	}
	return lane
}

// resultView returns the destination of an n-element result, at byte
// address dst of pad, for an execute function to compute into. When it
// can, that is a writable view of the scratchpad storage itself, and
// inPlace is true: the region is in range, the host can alias it
// (fixed.ViewBytes), and every input region in srcs, which lie in the
// same scratchpad, is disjoint from it or, when same is set, equal to it
// (the element-wise kernels allow out == a and out == b). Otherwise it
// returns *buf resized to n, and storeResult copies the result in; so a
// partial overlap, MMV or VMM over its own input vector, a misaligned
// view and an out-of-range destination, whose error storeResult reports
// after the sources', all take the buffer.
func resultView(pad *mem.Scratchpad, dst, n int, buf *[]fixed.Num, same bool, srcs ...mem.Region) (out []fixed.Num, inPlace bool) {
	reg := mem.Region{Addr: dst, N: fixed.Bytes(n)}
	for _, src := range srcs {
		if src.Overlaps(reg) && !(same && src == reg) {
			return scratch(buf, n), false
		}
	}
	if view, err := pad.WriteView(dst, reg.N); err == nil {
		if out, ok := fixed.ViewBytes(view, n); ok {
			return out, true
		}
	}
	return scratch(buf, n), false
}

// storeResult stores a result that resultView placed in a buffer at
// byte address dst of pad; a result computed in place is already there.
func storeResult(pad *mem.Scratchpad, dst int, out []fixed.Num, inPlace bool) error {
	if inPlace {
		return nil
	}
	return pad.WriteNums(dst, out)
}

// corruptDMA offers an in-flight DMA payload to the injector. A nil
// injector makes this a single branch.
func (m *Machine) corruptDMA(data []byte) {
	if m.inj != nil && m.inj.CorruptDMA(m.stats.Instructions, data) {
		m.noteFault("dma-bit")
	}
}

// execInto functionally executes inst against the architectural state
// and writes its timing effect into a caller-owned buffer (*e must be
// reset on entry).
func (m *Machine) execInto(inst core.Instruction, e *effect) error {
	switch inst.Op {
	case core.JUMP:
		e.fu = fuScalar
		e.execCycles = 1
		e.branchTaken = true
		e.branchOffset = int(m.tailInt(inst, 0))
	case core.CB:
		e.fu = fuScalar
		e.execCycles = 1
		if m.regInt(inst.R[0]) > 0 {
			e.branchTaken = true
			e.branchOffset = int(m.tailInt(inst, 1))
		}

	case core.VLOAD, core.MLOAD:
		return m.execLoadStore(inst, e, true)
	case core.VSTORE, core.MSTORE:
		return m.execLoadStore(inst, e, false)
	case core.VMOVE, core.MMOVE:
		return m.execMove(inst, e)
	case core.SLOAD:
		e.fu = fuScalarMem
		e.execCycles = 2 // L1 hit
		addr := m.regAddr(inst.R[1]) + int(inst.Imm)
		v, err := m.main.ReadWord(addr)
		if err != nil {
			return err
		}
		m.gpr[inst.R[0]] = v
		e.touch(spaceMain, addr, 4, false)
	case core.SSTORE:
		e.fu = fuScalarMem
		e.execCycles = 2
		addr := m.regAddr(inst.R[1]) + int(inst.Imm)
		if err := m.main.WriteWord(addr, m.gpr[inst.R[0]]); err != nil {
			return err
		}
		e.touch(spaceMain, addr, 4, true)
	case core.SMOVE:
		e.fu = fuScalar
		e.execCycles = 1
		m.gpr[inst.R[0]] = uint32(m.tailInt(inst, 1))

	case core.MMV, core.VMM:
		return m.execMatVec(inst, e)
	case core.MMS:
		return m.execMMS(inst, e)
	case core.OP:
		return m.execOuter(inst, e)
	case core.MAM, core.MSM:
		return m.execMatElem(inst, e)

	case core.VAV, core.VSV, core.VMV, core.VDV,
		core.VGT, core.VE, core.VAND, core.VOR, core.VGTM:
		return m.execVecBinary(inst, e)
	case core.VAS:
		return m.execVAS(inst, e)
	case core.VEXP, core.VLOG, core.VNOT:
		return m.execVecUnary(inst, e)
	case core.VDOT:
		return m.execVDOT(inst, e)
	case core.RV:
		return m.execRV(inst, e)
	case core.VMAX, core.VMIN:
		return m.execVReduce(inst, e)

	case core.SADD, core.SSUB, core.SMUL, core.SDIV,
		core.SGT, core.SE, core.SAND:
		e.fu = fuScalar
		e.execCycles = 1
		a := m.regInt(inst.R[1])
		b := m.tailInt(inst, 2)
		var r int32
		switch inst.Op {
		case core.SADD:
			r = a + b
		case core.SSUB:
			r = a - b
		case core.SMUL:
			r = a * b
		case core.SDIV:
			e.execCycles = int64(m.cfg.DivBeatCycles)
			if b == 0 {
				return fmt.Errorf("scalar division by zero")
			}
			r = a / b
		case core.SGT:
			if a > b {
				r = 1
			}
		case core.SE:
			if a == b {
				r = 1
			}
		case core.SAND:
			if a != 0 && b != 0 {
				r = 1
			}
		}
		m.gpr[inst.R[0]] = uint32(r)
	case core.SEXP, core.SLOG:
		e.fu = fuScalar
		e.execCycles = int64(m.cfg.CordicBeatCycles)
		m.stats.TranscendentalElems++
		v := fixed.Num(m.tailInt(inst, 1))
		var r fixed.Num
		if inst.Op == core.SEXP {
			r = fixed.Exp(v)
		} else {
			r = fixed.Log(v)
		}
		m.gpr[inst.R[0]] = uint32(int32(r))

	default:
		return fmt.Errorf("unimplemented opcode %v", inst.Op)
	}
	return nil
}

// execLoadStore handles VLOAD/VSTORE/MLOAD/MSTORE: a DMA transfer between
// main memory and a scratchpad, one copy from the source region into the
// destination. The two memories are distinct, so the injector, offered
// the destination bytes after the copy, flips exactly what flipping the
// payload in flight would.
func (m *Machine) execLoadStore(inst core.Instruction, e *effect, load bool) error {
	sp, pad := spaceVec, m.vspad
	e.fu = fuVector
	if inst.Op == core.MLOAD || inst.Op == core.MSTORE {
		sp, pad = spaceMat, m.mspad
		e.fu = fuMatrix
	}
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	spadAddr := m.regAddr(inst.R[0])
	mainAddr := m.regAddr(inst.R[2]) + int(inst.Imm)
	bytes := fixed.Bytes(n)
	// The source region is checked before the destination, so a transfer
	// that is out of range on both sides reports its source.
	var src, dst []byte
	if load {
		if src, err = m.main.BytesView(mainAddr, bytes); err == nil {
			dst, err = pad.WriteView(spadAddr, bytes)
		}
	} else {
		if src, err = pad.BytesView(spadAddr, bytes); err == nil {
			dst, err = m.main.WriteView(mainAddr, bytes)
		}
	}
	if err != nil {
		return err
	}
	copy(dst, src)
	m.corruptDMA(dst)
	if load {
		e.touch(spaceMain, mainAddr, bytes, false)
		e.touch(sp, spadAddr, bytes, true)
	} else {
		e.touch(sp, spadAddr, bytes, false)
		e.touch(spaceMain, mainAddr, bytes, true)
	}
	dma := mem.DMA{StartupCycles: m.cfg.DMAStartupCycles, BytesPerCycle: m.cfg.DMABytesPerCycle}
	e.execCycles = int64(dma.TransferCycles(bytes))
	e.isDMA = true
	e.dmaBytes = bytes
	m.stats.DMABytes += int64(bytes)
	m.stats.SpadBytes += int64(bytes)
	return nil
}

// execMove handles VMOVE/MMOVE: an on-chip copy within one scratchpad,
// source region checked first. copy is a memmove, so overlapping regions
// copy as if through a buffer.
func (m *Machine) execMove(inst core.Instruction, e *effect) error {
	sp, pad := spaceVec, m.vspad
	e.fu = fuVector
	if inst.Op == core.MMOVE {
		sp, pad = spaceMat, m.mspad
		e.fu = fuMatrix
	}
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst, src := m.regAddr(inst.R[0]), m.regAddr(inst.R[2])
	bytes := fixed.Bytes(n)
	from, err := pad.BytesView(src, bytes)
	if err != nil {
		return err
	}
	to, err := pad.WriteView(dst, bytes)
	if err != nil {
		return err
	}
	copy(to, from)
	e.touch(sp, src, bytes, false)
	e.touch(sp, dst, bytes, true)
	if sp == spaceVec {
		e.execCycles = m.vecCycles(n, 1, e.acc.list())
	} else {
		e.execCycles = m.matElemCycles(n)
	}
	m.stats.SpadBytes += 2 * int64(bytes)
	return nil
}

// execMatVec handles MMV (Vout = M x Vin) and VMM (Vout = Vin x M). Both
// read the matrix row-major from the matrix scratchpad; VMM contracts over
// rows instead of columns, which is what makes the transpose-free backward
// pass possible (Section III-A).
func (m *Machine) execMatVec(inst core.Instruction, e *effect) error {
	e.fu = fuMatrix
	outN, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	inN, err := m.regSize(inst.R[4])
	if err != nil {
		return err
	}
	matAddr := m.regAddr(inst.R[2])
	vinAddr := m.regAddr(inst.R[3])
	voutAddr := m.regAddr(inst.R[0])

	vin, err := m.vspad.NumsView(vinAddr, inN, &m.bufA)
	if err != nil {
		return err
	}
	var rows, cols int
	if inst.Op == core.MMV {
		rows, cols = outN, inN
	} else {
		rows, cols = inN, outN
	}
	mat, err := m.mspad.NumsView(matAddr, rows*cols, &m.bufMat)
	if err != nil {
		return err
	}
	// With a zero-length input the matrix region is empty whatever outN
	// is, so check the output region before sizing buffers from outN.
	if err := m.vspad.Check(voutAddr, fixed.Bytes(outN)); err != nil {
		return err
	}
	// MMV reads all of vin again for every output it writes, so out
	// must not overlap vin at all; VMM keeps the same rule.
	out, inPlace := resultView(m.vspad, voutAddr, outN, &m.bufOut, false,
		mem.Region{Addr: vinAddr, N: fixed.Bytes(inN)})
	if inst.Op == core.MMV {
		fixed.MatVec(out, mat, vin)
	} else {
		fixed.VecMat(out, vin, mat, scratchAcc(&m.bufAcc, outN))
	}
	m.applyStuck(fault.UnitMatrix, out)
	if err := storeResult(m.vspad, voutAddr, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceMat, matAddr, fixed.Bytes(rows*cols), false)
	e.touch(spaceVec, vinAddr, fixed.Bytes(inN), false)
	e.touch(spaceVec, voutAddr, fixed.Bytes(outN), true)
	e.execCycles = m.matCycles(rows, cols)
	m.stats.MACOps += int64(rows) * int64(cols)
	m.stats.SpadBytes += int64(fixed.Bytes(rows*cols + inN + outN))
	return nil
}

// execMMS handles matrix-mult-scalar.
func (m *Machine) execMMS(inst core.Instruction, e *effect) error {
	e.fu = fuMatrix
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst, src := m.regAddr(inst.R[0]), m.regAddr(inst.R[2])
	s := fixed.Num(m.tailInt(inst, 3))
	in, err := m.mspad.NumsView(src, n, &m.bufA)
	if err != nil {
		return err
	}
	out, inPlace := resultView(m.mspad, dst, n, &m.bufOut, true,
		mem.Region{Addr: src, N: fixed.Bytes(n)})
	fixed.VecMulScalar(out, in, s)
	m.applyStuck(fault.UnitMatrix, out)
	if err := storeResult(m.mspad, dst, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceMat, src, fixed.Bytes(n), false)
	e.touch(spaceMat, dst, fixed.Bytes(n), true)
	e.execCycles = m.matElemCycles(n)
	m.stats.MACOps += int64(n)
	m.stats.SpadBytes += int64(2 * fixed.Bytes(n))
	return nil
}

// execOuter handles OP: Mout[i][j] = Vin0[i] * Vin1[j].
func (m *Machine) execOuter(inst core.Instruction, e *effect) error {
	e.fu = fuMatrix
	rows, err := m.regSize(inst.R[2])
	if err != nil {
		return err
	}
	cols, err := m.regSize(inst.R[4])
	if err != nil {
		return err
	}
	dst := m.regAddr(inst.R[0])
	v0, err := m.vspad.NumsView(m.regAddr(inst.R[1]), rows, &m.bufA)
	if err != nil {
		return err
	}
	v1, err := m.vspad.NumsView(m.regAddr(inst.R[3]), cols, &m.bufB)
	if err != nil {
		return err
	}
	// Each length passes the vector-scratchpad check on its own, but
	// their product can still far exceed the matrix scratchpad.
	if err := m.mspad.Check(dst, fixed.Bytes(rows*cols)); err != nil {
		return err
	}
	// The inputs are in the vector scratchpad, so they never overlap
	// the output.
	out, inPlace := resultView(m.mspad, dst, rows*cols, &m.bufMat, false)
	for i, v := range v0 {
		fixed.VecMulScalar(out[i*cols:(i+1)*cols], v1, v)
	}
	m.applyStuck(fault.UnitMatrix, out)
	if err := storeResult(m.mspad, dst, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceVec, m.regAddr(inst.R[1]), fixed.Bytes(rows), false)
	e.touch(spaceVec, m.regAddr(inst.R[3]), fixed.Bytes(cols), false)
	e.touch(spaceMat, dst, fixed.Bytes(rows*cols), true)
	e.execCycles = m.matCycles(rows, cols)
	m.stats.MACOps += int64(rows) * int64(cols)
	m.stats.SpadBytes += int64(fixed.Bytes(rows*cols + rows + cols))
	return nil
}

// execMatElem handles MAM/MSM: element-wise matrix add/subtract.
func (m *Machine) execMatElem(inst core.Instruction, e *effect) error {
	e.fu = fuMatrix
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst, aAddr, bAddr := m.regAddr(inst.R[0]), m.regAddr(inst.R[2]), m.regAddr(inst.R[3])
	a, err := m.mspad.NumsView(aAddr, n, &m.bufA)
	if err != nil {
		return err
	}
	b, err := m.mspad.NumsView(bAddr, n, &m.bufB)
	if err != nil {
		return err
	}
	out, inPlace := resultView(m.mspad, dst, n, &m.bufOut, true,
		mem.Region{Addr: aAddr, N: fixed.Bytes(n)}, mem.Region{Addr: bAddr, N: fixed.Bytes(n)})
	if inst.Op == core.MAM {
		fixed.VecAdd(out, a, b)
	} else {
		fixed.VecSub(out, a, b)
	}
	m.applyStuck(fault.UnitMatrix, out)
	if err := storeResult(m.mspad, dst, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceMat, aAddr, fixed.Bytes(n), false)
	e.touch(spaceMat, bAddr, fixed.Bytes(n), false)
	e.touch(spaceMat, dst, fixed.Bytes(n), true)
	e.execCycles = m.matElemCycles(n)
	m.stats.MACOps += int64(n)
	m.stats.SpadBytes += int64(3 * fixed.Bytes(n))
	return nil
}

// execVecBinary handles all element-wise two-vector operations.
func (m *Machine) execVecBinary(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst, aAddr, bAddr := m.regAddr(inst.R[0]), m.regAddr(inst.R[2]), m.regAddr(inst.R[3])
	a, err := m.vspad.NumsView(aAddr, n, &m.bufA)
	if err != nil {
		return err
	}
	b, err := m.vspad.NumsView(bAddr, n, &m.bufB)
	if err != nil {
		return err
	}
	// Every operation below sets out[i] from a[i] and b[i] alone, so out
	// may be a or b.
	out, inPlace := resultView(m.vspad, dst, n, &m.bufOut, true,
		mem.Region{Addr: aAddr, N: fixed.Bytes(n)}, mem.Region{Addr: bAddr, N: fixed.Bytes(n)})
	beatCost := 1
	// One switch per instruction, not per element: VAV, VSV, VMV and VGTM
	// are one call each to an element-wise kernel of internal/fixed, and
	// the rarely run division and compares keep per-opcode loops.
	switch inst.Op {
	case core.VAV:
		fixed.VecAdd(out, a, b)
	case core.VSV:
		fixed.VecSub(out, a, b)
	case core.VMV:
		fixed.VecMul(out, a, b)
	case core.VDV:
		for i := range out {
			out[i] = fixed.Div(a[i], b[i])
		}
		beatCost = m.cfg.DivBeatCycles
	case core.VGT:
		for i := range out {
			out[i] = boolNum(a[i] > b[i])
		}
	case core.VE:
		for i := range out {
			out[i] = boolNum(a[i] == b[i])
		}
	case core.VAND:
		for i := range out {
			out[i] = boolNum(a[i] != 0 && b[i] != 0)
		}
	case core.VOR:
		for i := range out {
			out[i] = boolNum(a[i] != 0 || b[i] != 0)
		}
	case core.VGTM:
		fixed.VecMax(out, a, b)
	}
	m.applyStuck(fault.UnitVector, out)
	if err := storeResult(m.vspad, dst, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceVec, aAddr, fixed.Bytes(n), false)
	e.touch(spaceVec, bAddr, fixed.Bytes(n), false)
	e.touch(spaceVec, dst, fixed.Bytes(n), true)
	e.execCycles = m.vecCycles(n, beatCost, e.acc.list())
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(3 * fixed.Bytes(n))
	return nil
}

// execVAS handles vector-add-scalar.
func (m *Machine) execVAS(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst, aAddr := m.regAddr(inst.R[0]), m.regAddr(inst.R[2])
	a, err := m.vspad.NumsView(aAddr, n, &m.bufA)
	if err != nil {
		return err
	}
	s := fixed.Num(m.tailInt(inst, 3))
	out, inPlace := resultView(m.vspad, dst, n, &m.bufOut, true,
		mem.Region{Addr: aAddr, N: fixed.Bytes(n)})
	fixed.VecAddScalar(out, a, s)
	m.applyStuck(fault.UnitVector, out)
	if err := storeResult(m.vspad, dst, out, inPlace); err != nil {
		return err
	}
	e.touch(spaceVec, aAddr, fixed.Bytes(n), false)
	e.touch(spaceVec, dst, fixed.Bytes(n), true)
	e.execCycles = m.vecCycles(n, 1, e.acc.list())
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(2 * fixed.Bytes(n))
	return nil
}

// execVecUnary handles VEXP/VLOG/VNOT.
func (m *Machine) execVecUnary(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst := m.regAddr(inst.R[0])
	a, err := m.vspad.NumsView(m.regAddr(inst.R[2]), n, &m.bufA)
	if err != nil {
		return err
	}
	out := scratch(&m.bufOut, n)
	beatCost := 1
	switch inst.Op {
	case core.VEXP:
		beatCost = m.cfg.CordicBeatCycles
		for i := range out {
			out[i] = fixed.Exp(a[i])
		}
		m.stats.TranscendentalElems += int64(n)
	case core.VLOG:
		beatCost = m.cfg.CordicBeatCycles
		for i := range out {
			out[i] = fixed.Log(a[i])
		}
		m.stats.TranscendentalElems += int64(n)
	case core.VNOT:
		for i := range out {
			out[i] = boolNum(a[i] == 0)
		}
	}
	m.applyStuck(fault.UnitVector, out)
	if err := m.vspad.WriteNums(dst, out); err != nil {
		return err
	}
	e.touch(spaceVec, m.regAddr(inst.R[2]), fixed.Bytes(n), false)
	e.touch(spaceVec, dst, fixed.Bytes(n), true)
	e.execCycles = m.vecCycles(n, beatCost, e.acc.list())
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(2 * fixed.Bytes(n))
	return nil
}

// execVDOT handles the dot product, writing its scalar result to a GPR.
func (m *Machine) execVDOT(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	a, err := m.vspad.NumsView(m.regAddr(inst.R[2]), n, &m.bufA)
	if err != nil {
		return err
	}
	b, err := m.vspad.NumsView(m.regAddr(inst.R[3]), n, &m.bufB)
	if err != nil {
		return err
	}
	m.gpr[inst.R[0]] = uint32(int32(fixed.Dot(a, b)))
	e.touch(spaceVec, m.regAddr(inst.R[2]), fixed.Bytes(n), false)
	e.touch(spaceVec, m.regAddr(inst.R[3]), fixed.Bytes(n), false)
	e.execCycles = m.vecCycles(n, 1, e.acc.list()) + reduceCycles(m.cfg.VectorLanes)
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(2 * fixed.Bytes(n))
	return nil
}

// execRV handles the random-vector instruction: uniform fixed-point values
// over [0, 1) from the machine's deterministic PRNG.
func (m *Machine) execRV(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	dst := m.regAddr(inst.R[0])
	if err := m.vspad.Check(dst, fixed.Bytes(n)); err != nil {
		return err
	}
	out := scratch(&m.bufOut, n)
	for i := range out {
		out[i] = m.nextRand()
	}
	m.applyStuck(fault.UnitVector, out)
	if err := m.vspad.WriteNums(dst, out); err != nil {
		return err
	}
	e.touch(spaceVec, dst, fixed.Bytes(n), true)
	e.execCycles = m.vecCycles(n, 1, e.acc.list())
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(fixed.Bytes(n))
	return nil
}

// execVReduce handles VMAX/VMIN, writing the extreme element to a GPR.
func (m *Machine) execVReduce(inst core.Instruction, e *effect) error {
	e.fu = fuVector
	n, err := m.regSize(inst.R[1])
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%v of an empty vector", inst.Op)
	}
	a, err := m.vspad.NumsView(m.regAddr(inst.R[2]), n, &m.bufA)
	if err != nil {
		return err
	}
	// One loop per opcode, so the element loop tests no opcode.
	best := a[0]
	if inst.Op == core.VMAX {
		for _, v := range a[1:] {
			best = max(best, v)
		}
	} else {
		for _, v := range a[1:] {
			best = min(best, v)
		}
	}
	m.gpr[inst.R[0]] = uint32(int32(best))
	e.touch(spaceVec, m.regAddr(inst.R[2]), fixed.Bytes(n), false)
	e.execCycles = m.vecCycles(n, 1, e.acc.list()) + reduceCycles(m.cfg.VectorLanes)
	m.stats.VectorElems += int64(n)
	m.stats.SpadBytes += int64(fixed.Bytes(n))
	return nil
}

// reduceCycles is the cost of the lane-reduction tree.
func reduceCycles(lanes int) int64 {
	c := int64(0)
	for lanes > 1 {
		lanes = (lanes + 1) / 2
		c++
	}
	return c
}

func boolNum(b bool) fixed.Num {
	if b {
		return fixed.One
	}
	return 0
}

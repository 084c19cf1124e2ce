package sim

import (
	"context"
	"fmt"
	"io"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// FuseKind classifies a fused instruction pair. The fusion pass marks the
// pair's head pc; execution then dispatches both constituents from one
// loop iteration, short-circuiting the intermediate vector where the
// second constituent re-reads exactly what the first just produced.
type FuseKind uint8

const (
	// FuseNone: the pc does not start a fused pair.
	FuseNone FuseKind = iota
	// FuseLoadMatVec: VLOAD followed by MMV/VMM consuming the loaded
	// vector (the Table III layer prologue). The pair shares one
	// dispatch; the loaded data crosses the scratchpad as bytes, so
	// there is no numeric intermediate to short-circuit.
	FuseLoadMatVec
	// FuseMatVecAct: MMV/VMM followed by an activation-shaped vector op
	// (VEXP/VLOG/VNOT/VAS) consuming the product vector. The product is
	// handed to the activation directly from the matrix unit's output
	// buffer; the scratchpad write still happens (architectural state
	// stays bit-identical) but the re-read is skipped.
	FuseMatVecAct
	// FuseVecChain: a vector producer followed by a vector op consuming
	// its output (elementwise chains, reductions, dot products), with
	// the same output-buffer hand-off as FuseMatVecAct.
	FuseVecChain
)

func (k FuseKind) String() string {
	switch k {
	case FuseNone:
		return "none"
	case FuseLoadMatVec:
		return "load->matvec"
	case FuseMatVecAct:
		return "matvec->act"
	case FuseVecChain:
		return "vec-chain"
	default:
		return fmt.Sprintf("FuseKind(%d)", uint8(k))
	}
}

// FusionStats counts the fused pairs a pre-decoded program contains, by
// kind. Counts are static (per program, not per dynamic execution).
type FusionStats struct {
	LoadMatVec int
	MatVecAct  int
	VecChain   int
}

// Total is the number of fused pairs of all kinds.
func (f FusionStats) Total() int { return f.LoadMatVec + f.MatVecAct + f.VecChain }

// DecodedProgram is a program in executable pre-decoded form: the
// per-instruction decode work hoisted out of the dynamic loop
// (core.PreDecode) plus the peephole fusion plan. A DecodedProgram is
// immutable after Predecode and may be shared by any number of machines
// concurrently — warm-pool acquisitions and fault-campaign workers all
// execute the same decoded image.
type DecodedProgram struct {
	insts  []core.Instruction
	dec    []core.DecodedInst
	fuse   []FuseKind
	fusion FusionStats
	// err is set only on the program LoadProgram installs for an invalid
	// instruction stream: the *RuntimeError every run of it returns.
	err error
}

// Predecode validates and pre-decodes prog and plans its fusion pairs.
// The program must not be mutated afterwards: snapshots and the machines
// restored from them share it.
func Predecode(prog []core.Instruction) (*DecodedProgram, error) {
	dec, err := core.PreDecode(prog)
	if err != nil {
		return nil, err
	}
	dp := &DecodedProgram{insts: prog, dec: dec}
	dp.fuse, dp.fusion = fusePlan(dec)
	return dp, nil
}

// Instructions returns the underlying program. Callers must not mutate it.
func (dp *DecodedProgram) Instructions() []core.Instruction { return dp.insts }

// Len is the static instruction count.
func (dp *DecodedProgram) Len() int { return len(dp.dec) }

// Fusion returns the program's static fusion-pair counts.
func (dp *DecodedProgram) Fusion() FusionStats { return dp.fusion }

// Dump writes the pre-decoded listing: one line per instruction with the
// encoded word, type category, operand register sets, disassembly, and
// the fusion decision covering it, followed by a summary line. The format
// is stable (covered by a golden test) for use as a debugging artifact.
func (dp *DecodedProgram) Dump(w io.Writer) error {
	for pc := range dp.dec {
		d := &dp.dec[pc]
		role := " "
		switch {
		case dp.fuse[pc] != FuseNone:
			role = "┌"
		case pc > 0 && dp.fuse[pc-1] != FuseNone:
			role = "└"
		}
		src := "-"
		if d.NSrc > 0 {
			buf := make([]byte, 0, 16)
			for i, r := range d.Src() {
				if i > 0 {
					buf = append(buf, ',')
				}
				buf = append(buf, '$')
				buf = appendUint(buf, int(r))
			}
			src = string(buf)
		}
		dst := "-"
		if d.HasDest {
			dst = fmt.Sprintf("$%d", d.DestReg)
		}
		fuseNote := ""
		if k := dp.fuse[pc]; k != FuseNone {
			fuseNote = fmt.Sprintf("  ; fuse %s", k)
		}
		if _, err := fmt.Fprintf(w, "%4d %s %016x  %-13s src=%-12s dst=%-3s %v%s\n",
			pc, role, d.Word, d.Type, src, dst, d.Inst, fuseNote); err != nil {
			return err
		}
	}
	f := dp.fusion
	_, err := fmt.Fprintf(w, "predecoded %d instructions; fused pairs: total=%d load->matvec=%d matvec->act=%d vec-chain=%d\n",
		len(dp.dec), f.Total(), f.LoadMatVec, f.MatVecAct, f.VecChain)
	return err
}

func appendUint(buf []byte, v int) []byte {
	if v >= 10 {
		buf = appendUint(buf, v/10)
	}
	return append(buf, byte('0'+v%10))
}

// vecProducer reports whether op writes an n-element vector to the vector
// scratchpad at the address in R[0] with the element count in R[1], writes
// no GPR, and leaves its result in the machine's output operand buffer —
// the producer half of a fusible pair.
func vecProducer(op core.Opcode) bool {
	switch op {
	case core.VAV, core.VSV, core.VMV, core.VDV, core.VGT, core.VE,
		core.VAND, core.VOR, core.VGTM, core.VAS,
		core.VEXP, core.VLOG, core.VNOT, core.RV,
		core.MMV, core.VMM:
		return true
	}
	return false
}

// consumesVec reports whether inst reads a vector-scratchpad operand whose
// address register is addrReg and whose element-count register is sizeReg —
// the consumer half of a fusible pair. The static register-index match
// guarantees the runtime region match (the producer writes no GPR, so the
// registers cannot change between the constituents).
func consumesVec(inst core.Instruction, addrReg, sizeReg uint8) bool {
	switch inst.Op {
	case core.VEXP, core.VLOG, core.VNOT, core.VMAX, core.VMIN:
		return inst.R[2] == addrReg && inst.R[1] == sizeReg
	case core.VAS:
		return inst.R[2] == addrReg && inst.R[1] == sizeReg
	case core.VAV, core.VSV, core.VMV, core.VDV, core.VGT, core.VE,
		core.VAND, core.VOR, core.VGTM, core.VDOT:
		return (inst.R[2] == addrReg || inst.R[3] == addrReg) && inst.R[1] == sizeReg
	case core.MMV, core.VMM:
		return inst.R[3] == addrReg && inst.R[4] == sizeReg
	}
	return false
}

// activation reports whether op is the activation-shaped tail of the
// paper's MMV→activation codegen idiom.
func activation(op core.Opcode) bool {
	switch op {
	case core.VEXP, core.VLOG, core.VNOT, core.VAS:
		return true
	}
	return false
}

// fusePlan runs the peephole pass over the pre-decoded program: a greedy
// left-to-right scan marking non-overlapping [pc, pc+1] pairs where the
// first instruction produces a vector the second consumes. Correctness
// does not depend on the plan — a marked pair executes exactly the two
// constituent semantics with all timing-model calls preserved — so the
// pass only has to be conservative enough that the intermediate hand-off
// condition (same address and count registers, producer writes no GPR)
// holds.
func fusePlan(dec []core.DecodedInst) ([]FuseKind, FusionStats) {
	fuse := make([]FuseKind, len(dec))
	var fs FusionStats
	for pc := 0; pc+1 < len(dec); pc++ {
		if pc > 0 && fuse[pc-1] != FuseNone {
			continue // second half of the previous pair
		}
		a, b := dec[pc].Inst, dec[pc+1].Inst
		switch {
		case a.Op == core.VLOAD && (b.Op == core.MMV || b.Op == core.VMM) &&
			b.R[3] == a.R[0] && b.R[4] == a.R[1]:
			fuse[pc] = FuseLoadMatVec
			fs.LoadMatVec++
		case vecProducer(a.Op) && consumesVec(b, a.R[0], a.R[1]):
			if (a.Op == core.MMV || a.Op == core.VMM) && activation(b.Op) {
				fuse[pc] = FuseMatVecAct
				fs.MatVecAct++
			} else {
				fuse[pc] = FuseVecChain
				fs.VecChain++
			}
		}
	}
	return fuse, fs
}

// LoadDecoded installs a pre-decoded program, typically one shared by
// many machines (a decode cache, a campaign's workers): unlike
// LoadProgram it costs no decode and no allocation.
func (m *Machine) LoadDecoded(dp *DecodedProgram) {
	m.dec = dp
	m.pc = 0
}

// runDecodedTight is the fused hot loop: no tracer, no instruction trace,
// no injector, no access trace. Per dynamic instruction it performs only
// the functional execution, the statistics updates and the timing-model
// advance — operand roles come from the decode, and fused pairs execute
// with a single dispatch. A positive MaxCycles arms the same per-commit
// watchdog as runDecodedSlow (the reusable event buffer then records
// stage timestamps for the diagnostic; timing is unaffected).
func (m *Machine) runDecodedTight(ctx context.Context) (Stats, error) {
	dp := m.dec
	dec := dp.dec
	limit := m.cfg.MaxDynamicInstructions
	watchdog := m.cfg.MaxCycles > 0
	done := ctx.Done()
	stopAt := m.stopAt
	var evp *trace.InstEvent
	if watchdog {
		// The watchdog diagnostic reads only the stage timestamps
		// advanceWith assigns unconditionally, so the buffer needs no
		// per-step reset.
		evp = &m.ev
	}
	for m.pc >= 0 && m.pc < len(dec) {
		n := m.stats.Instructions
		if stopAt >= 0 && n >= stopAt {
			m.stopped = true
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, nil
		}
		if done != nil && n&1023 == 0 {
			select {
			case <-done:
				m.stats.Cycles = m.pipe.lastCommit
				m.metCancel.Inc()
				return m.stats, ctx.Err()
			default:
			}
		}
		if n >= limit {
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: dec[m.pc].Inst,
				Err: fmt.Errorf("dynamic instruction limit %d exceeded", limit)}
		}
		d := &dec[m.pc]
		// A fused pair executes both constituents from this iteration.
		// Fall back to single steps when the second constituent would
		// cross the instruction limit, a cancellation poll point or a
		// RunUntil stop boundary, so those checks fire at exactly the
		// instruction boundaries runDecodedSlow checks them at.
		if k := dp.fuse[m.pc]; k != FuseNone && n+2 <= limit &&
			(done == nil || (n+1)&1023 != 0) &&
			(stopAt < 0 || n+2 <= stopAt) {
			if err := m.stepFused(d, &dec[m.pc+1], k, evp); err != nil {
				m.stats.Cycles = m.pipe.lastCommit
				return m.stats, err
			}
			m.pc += 2
			continue
		}
		m.eff.reset()
		if err := m.execInto(d.Inst, &m.eff); err != nil {
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: d.Inst, Err: err}
		}
		m.stats.Instructions++
		m.stats.ByType[d.Type]++
		m.stats.ByOpcode[d.Inst.Op]++
		commit := m.pipe.advanceWith(d.Src(), d.DestReg, d.HasDest, &m.eff, evp)
		if watchdog && commit > m.cfg.MaxCycles {
			m.stats.Cycles = m.pipe.lastCommit
			m.metWatchdog.Inc()
			return m.stats, &WatchdogError{
				PC:    m.pc,
				Inst:  d.Inst,
				Index: m.stats.Instructions - 1,
				Cycle: commit,
				Limit: m.cfg.MaxCycles,
				Stage: stageAt(&m.ev, m.cfg.MaxCycles),
			}
		}
		if m.eff.branchTaken {
			m.stats.BranchesTaken++
			m.pc += m.eff.branchOffset
		} else {
			m.pc++
		}
	}
	m.stats.Cycles = m.pipe.lastCommit
	if m.pc != len(dec) && len(dec) > 0 {
		return m.stats, fmt.Errorf("sim: control flow left the program (pc=%d, len=%d)", m.pc, len(dec))
	}
	return m.stats, nil
}

// stepFused executes a fused pair: two instructions, one dispatch. Each
// constituent still reports its own effect to the timing model and the
// statistics — fusion changes host work, never simulated behaviour. For
// the numeric hand-off kinds the producer's output operand buffer is
// armed as a read short-circuit while the consumer executes: the consumer
// reads the intermediate vector straight from the producer's buffer
// instead of re-reading the scratchpad region holding the identical data
// (the scratchpad write itself is never skipped). Fusion legality
// guarantees neither constituent branches or writes a register the
// hand-off depends on. A non-nil evp arms the watchdog: the cycle budget
// is checked after each constituent's commit, so a pair whose first half
// trips the budget errors out before the second half executes — exactly
// the unfused instruction boundary.
func (m *Machine) stepFused(d1, d2 *core.DecodedInst, k FuseKind, evp *trace.InstEvent) error {
	m.eff.reset()
	if err := m.execInto(d1.Inst, &m.eff); err != nil {
		return &RuntimeError{PC: m.pc, Inst: d1.Inst, Err: err}
	}
	m.stats.Instructions++
	m.stats.ByType[d1.Type]++
	m.stats.ByOpcode[d1.Inst.Op]++
	commit := m.pipe.advanceWith(d1.Src(), d1.DestReg, d1.HasDest, &m.eff, evp)
	if evp != nil && commit > m.cfg.MaxCycles {
		m.metWatchdog.Inc()
		return &WatchdogError{
			PC:    m.pc,
			Inst:  d1.Inst,
			Index: m.stats.Instructions - 1,
			Cycle: commit,
			Limit: m.cfg.MaxCycles,
			Stage: stageAt(&m.ev, m.cfg.MaxCycles),
		}
	}

	var err error
	if n1 := int(int32(m.gpr[d1.Inst.R[1]])); k != FuseLoadMatVec && n1 > 0 {
		// The producer's result sits in bufOut (and, identically, in the
		// scratchpad region it just wrote). Hand it to the consumer and
		// swap the output buffers so the consumer's own result cannot
		// clobber the intermediate it is still reading.
		m.fusedSrc = m.bufOut[:n1]
		m.fusedAddr = m.regAddr(d1.Inst.R[0])
		m.bufOut, m.bufFuse = m.bufFuse, m.bufOut
		m.eff.reset()
		err = m.execInto(d2.Inst, &m.eff)
		m.bufOut, m.bufFuse = m.bufFuse, m.bufOut
		m.fusedSrc = nil
	} else {
		m.eff.reset()
		err = m.execInto(d2.Inst, &m.eff)
	}
	if err != nil {
		return &RuntimeError{PC: m.pc + 1, Inst: d2.Inst, Err: err}
	}
	m.stats.Instructions++
	m.stats.ByType[d2.Type]++
	m.stats.ByOpcode[d2.Inst.Op]++
	commit = m.pipe.advanceWith(d2.Src(), d2.DestReg, d2.HasDest, &m.eff, evp)
	if evp != nil && commit > m.cfg.MaxCycles {
		m.metWatchdog.Inc()
		return &WatchdogError{
			PC:    m.pc + 1,
			Inst:  d2.Inst,
			Index: m.stats.Instructions - 1,
			Cycle: commit,
			Limit: m.cfg.MaxCycles,
			Stage: stageAt(&m.ev, m.cfg.MaxCycles),
		}
	}
	return nil
}

// runDecodedSlow is the general observing loop: one instruction per
// iteration, no fusion, with every observation hook — the instruction
// trace line, the tracer's per-instruction event, the injector's fetch
// corruption (of the decode's cached 64-bit word) and pre-execute hook,
// the access-trace record — called at its instruction boundary. It is
// the oracle the tight loop is checked against: statistics, cycles,
// architectural state and watchdog diagnostics agree bit for bit.
func (m *Machine) runDecodedSlow(ctx context.Context) (Stats, error) {
	dp := m.dec
	dec := dp.dec
	tracing := m.tracer != nil
	if tracing {
		m.tracer.BeginRun(m.runMeta())
		defer func() { m.tracer.EndRun(m.pipe.lastCommit) }()
	}
	if m.inj != nil {
		m.inj.BeginRun()
	}
	watchdog := m.cfg.MaxCycles > 0
	needEv := tracing || watchdog
	done := ctx.Done()
	stopAt := m.stopAt
	for m.pc >= 0 && m.pc < len(dec) {
		if stopAt >= 0 && m.stats.Instructions >= stopAt {
			m.stopped = true
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, nil
		}
		if done != nil && m.stats.Instructions&1023 == 0 {
			select {
			case <-done:
				m.stats.Cycles = m.pipe.lastCommit
				m.metCancel.Inc()
				return m.stats, ctx.Err()
			default:
			}
		}
		if m.stats.Instructions >= m.cfg.MaxDynamicInstructions {
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: dec[m.pc].Inst,
				Err: fmt.Errorf("dynamic instruction limit %d exceeded", m.cfg.MaxDynamicInstructions)}
		}
		d := &dec[m.pc]
		inst := d.Inst
		src, dst, hasDst := d.Src(), d.DestReg, d.HasDest
		typ := d.Type
		if m.inj != nil {
			if cw := m.inj.CorruptFetch(m.stats.Instructions, d.Word); cw != d.Word {
				m.noteFault("fetch-bit")
				var err error
				if inst, err = core.Decode(cw); err != nil {
					m.stats.Cycles = m.pipe.lastCommit
					return m.stats, &RuntimeError{PC: m.pc, Inst: d.Inst, Err: err}
				}
				// The corrupted instruction is not the decoded one: derive
				// its operand roles from the instruction itself.
				var srcBuf [6]uint8
				src = inst.ReadRegs(srcBuf[:0])
				dst, hasDst = inst.DestReg()
				typ = inst.Op.Type()
			}
			m.inj.BeforeExec(m.stats.Instructions, m)
		}
		m.eff.reset()
		if err := m.execInto(inst, &m.eff); err != nil {
			m.stats.Cycles = m.pipe.lastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: inst, Err: err}
		}
		m.stats.Instructions++
		m.stats.ByType[typ]++
		m.stats.ByOpcode[inst.Op]++
		if m.rec != nil {
			m.rec.record(m.stats.Instructions-1, src, dst, hasDst, &m.eff)
		}
		var evp *trace.InstEvent
		if needEv {
			if tracing {
				// The tracer consumes the event's stall attribution, which
				// advanceWith accumulates: the buffer must start zeroed. The
				// watchdog reads only the stage timestamps advanceWith
				// assigns unconditionally, so its diagnostic needs no reset.
				m.ev = trace.InstEvent{}
			}
			evp = &m.ev
		}
		commit := m.pipe.advanceWith(src, dst, hasDst, &m.eff, evp)
		if tracing {
			m.ev.Index = m.stats.Instructions - 1
			m.ev.PC = m.pc
			m.ev.Op = inst.Op
			m.ev.BranchTaken = m.eff.branchTaken
			m.ev.IsDMA = m.eff.isDMA
			m.ev.DMABytes = m.eff.dmaBytes
			m.tracer.Instruction(&m.ev)
		}
		if m.trace != nil {
			note := ""
			if m.eff.branchTaken {
				note = fmt.Sprintf("  ; taken -> %d", m.pc+m.eff.branchOffset)
			}
			fmt.Fprintf(m.trace, "%8d  cyc=%-8d pc=%-6d %s%s\n",
				m.stats.Instructions-1, commit, m.pc, inst, note)
		}
		if watchdog && commit > m.cfg.MaxCycles {
			m.stats.Cycles = m.pipe.lastCommit
			m.metWatchdog.Inc()
			return m.stats, &WatchdogError{
				PC:    m.pc,
				Inst:  inst,
				Index: m.stats.Instructions - 1,
				Cycle: commit,
				Limit: m.cfg.MaxCycles,
				Stage: stageAt(&m.ev, m.cfg.MaxCycles),
			}
		}
		if m.eff.branchTaken {
			m.stats.BranchesTaken++
			m.pc += m.eff.branchOffset
		} else {
			m.pc++
		}
	}
	m.stats.Cycles = m.pipe.lastCommit
	if m.pc != len(dec) && len(dec) > 0 {
		return m.stats, fmt.Errorf("sim: control flow left the program (pc=%d, len=%d)", m.pc, len(dec))
	}
	return m.stats, nil
}

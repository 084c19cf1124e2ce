package sim

import (
	"context"
	"fmt"
	"io"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// DecodedProgram is a program in executable pre-decoded form: the
// per-instruction decode work hoisted out of the dynamic loop
// (core.PreDecode). A DecodedProgram is immutable after Predecode and
// may be shared by any number of machines concurrently — warm-pool
// acquisitions and fault-campaign workers all execute the same decoded
// image.
type DecodedProgram struct {
	insts []core.Instruction
	dec   []core.DecodedInst
	// err is set only on the program LoadProgram installs for an invalid
	// instruction stream: the *RuntimeError every run of it returns.
	err error
}

// Predecode validates and pre-decodes prog. The program must not be
// mutated afterwards: snapshots and the machines restored from them share
// it.
func Predecode(prog []core.Instruction) (*DecodedProgram, error) {
	dec, err := core.PreDecode(prog)
	if err != nil {
		return nil, err
	}
	return &DecodedProgram{insts: prog, dec: dec}, nil
}

// Dump writes the pre-decoded listing: one line per instruction with the
// encoded word, type category, operand register sets and disassembly,
// followed by a summary line. The format is stable (covered by a golden
// test) for use as a debugging artifact.
func (dp *DecodedProgram) Dump(w io.Writer) error {
	for pc := range dp.dec {
		d := &dp.dec[pc]
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
		if _, err := fmt.Fprintf(w, "%4d %016x  %-13s src=%-12s dst=%-3s %v\n",
			pc, d.Word, d.Type, src, dst, d.Inst); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "predecoded %d instructions\n", len(dp.dec))
	return err
}

func appendUint(buf []byte, v int) []byte {
	if v >= 10 {
		buf = appendUint(buf, v/10)
	}
	return append(buf, byte('0'+v%10))
}

// LoadDecoded installs a pre-decoded program, typically one shared by
// many machines (a benchmark's runs, a campaign's workers): unlike
// LoadProgram it costs no decode and no allocation.
func (m *Machine) LoadDecoded(dp *DecodedProgram) {
	m.dec = dp
	m.pc = 0
}

// runDecoded is the run loop: one instruction per iteration, operand
// roles from the decode. Every hook — the injector's fetch corruption
// (of the decode's cached 64-bit word) and pre-execute hook, the
// access-trace record, the tracer's per-instruction event and the
// watchdog — is called at its instruction boundary and costs one nil
// check or flag test when nothing is attached. Only the injector's hooks
// change what the run computes.
func (m *Machine) runDecoded(ctx context.Context) (Stats, error) {
	dec := m.dec.dec
	limit := m.cfg.MaxDynamicInstructions
	watchdog := m.cfg.MaxCycles > 0
	inj := m.inj
	tracing := m.tracer != nil
	if tracing {
		m.tracer.BeginRun(m.runMeta())
		defer func() { m.tracer.EndRun(m.pipe.LastCommit) }()
	}
	if inj != nil {
		inj.BeginRun()
	}
	var evp *trace.InstEvent
	if tracing || watchdog {
		evp = &m.ev
	}
	done := ctx.Done()
	stopAt := m.stopAt
	for m.pc >= 0 && m.pc < len(dec) {
		n := m.stats.Instructions
		if stopAt >= 0 && n >= stopAt {
			m.stopped = true
			m.stats.Cycles = m.pipe.LastCommit
			return m.stats, nil
		}
		if done != nil && n&1023 == 0 {
			select {
			case <-done:
				m.stats.Cycles = m.pipe.LastCommit
				return m.stats, ctx.Err()
			default:
			}
		}
		if n >= limit {
			m.stats.Cycles = m.pipe.LastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: dec[m.pc].Inst,
				Err: fmt.Errorf("dynamic instruction limit %d exceeded", limit)}
		}
		d := &dec[m.pc]
		if inj != nil {
			if cw := inj.CorruptFetch(n, d.Word); cw != d.Word {
				m.noteFault("fetch-bit")
				inst, err := core.Decode(cw)
				if err != nil {
					m.stats.Cycles = m.pipe.LastCommit
					return m.stats, &RuntimeError{PC: m.pc, Inst: d.Inst, Err: err}
				}
				// The corrupted instruction is not the decoded one: it
				// issues and retires with its own operand roles.
				f := &m.fetched
				f.Inst, f.Word, f.Type = inst, cw, inst.Op.Type()
				f.NSrc = uint8(len(inst.ReadRegs(f.SrcRegs[:0])))
				f.DestReg, f.HasDest = inst.DestReg()
				d = f
			}
			inj.BeforeExec(n, m)
		}
		m.eff.reset()
		if err := m.execInto(d.Inst, &m.eff); err != nil {
			m.stats.Cycles = m.pipe.LastCommit
			return m.stats, &RuntimeError{PC: m.pc, Inst: d.Inst, Err: err}
		}
		m.stats.Instructions++
		m.stats.ByType[d.Type]++
		m.stats.ByOpcode[d.Inst.Op]++
		if m.rec != nil {
			m.rec.record(n, d.Src(), &m.eff)
		}
		if tracing {
			// The tracer consumes the event's stall attribution, which
			// advanceWith accumulates: the buffer must start zeroed. The
			// watchdog reads only the stage timestamps advanceWith
			// assigns unconditionally, so its diagnostic needs no reset.
			m.ev = trace.InstEvent{}
		}
		commit := m.pipe.advanceWith(d.Src(), d.DestReg, d.HasDest, &m.eff, evp)
		if tracing {
			m.ev.Index = n
			m.ev.PC = m.pc
			m.ev.Inst = d.Inst
			m.ev.BranchTaken = m.eff.branchTaken
			if m.eff.branchTaken {
				m.ev.Target = m.pc + m.eff.branchOffset
			}
			m.ev.IsDMA = m.eff.isDMA
			m.ev.DMABytes = m.eff.dmaBytes
			m.tracer.Instruction(&m.ev)
		}
		if watchdog && commit > m.cfg.MaxCycles {
			m.stats.Cycles = m.pipe.LastCommit
			return m.stats, &WatchdogError{
				PC:    m.pc,
				Inst:  d.Inst,
				Index: n,
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
	m.stats.Cycles = m.pipe.LastCommit
	if m.pc != len(dec) && len(dec) > 0 {
		return m.stats, fmt.Errorf("sim: control flow left the program (pc=%d, len=%d)", m.pc, len(dec))
	}
	return m.stats, nil
}

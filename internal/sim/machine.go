package sim

import (
	"context"
	"fmt"

	"cambricon/internal/core"
	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/mem"
	"cambricon/internal/trace"
)

// Machine is one Cambricon-ACC instance: architectural state (GPRs, PC,
// scratchpads, main memory) plus the pipeline timing model.
//
// A Machine is not safe for concurrent use; run independent machines in
// parallel instead (they share no state).
type Machine struct {
	cfg   Config
	gpr   [core.NumGPRs]uint32
	pc    int
	vspad *mem.Scratchpad
	mspad *mem.Scratchpad
	main  *mem.Main
	rng   uint64
	stats Stats
	pipe  pipeline

	// dec is the installed program in pre-decoded form (nil = none
	// loaded). LoadProgram and LoadDecoded set it, and Restore propagates
	// whatever the snapshot carried.
	dec *DecodedProgram
	// eff is the run loop's reusable effect buffer.
	eff effect
	// fetched is the decode of an instruction word the injector corrupted
	// at fetch, which the run loop executes in place of the program's.
	fetched core.DecodedInst

	// tracer receives the observability event stream (nil = untraced;
	// the hot path then makes no trace calls and allocates nothing). ev
	// is the single reusable event buffer handed to the tracer.
	tracer trace.Tracer
	ev     trace.InstEvent

	// inj receives the fault-injection hooks (nil = fault-free; the hot
	// path then makes no injector calls, allocates nothing, and produces
	// bit-identical cycle counts — the same contract as tracer).
	inj fault.Injector

	// rec, when non-nil, records each committed instruction's operand
	// registers and memory access regions (see AccessTrace). Like inj it
	// is behaviour-neutral.
	rec *AccessTrace

	// lastSnap remembers which Snapshot this machine's memory dirty
	// tracking is relative to: Restore to the same snapshot copies only
	// dirty pages, to another one also the pages the two images do not
	// share (everything when the machine tracks no writes), and Snapshot
	// copies only dirty pages, sharing the rest with it.
	// lastRestoreBytes is the copy volume of the most recent Restore.
	lastSnap         *Snapshot
	lastRestoreBytes int

	// pageBuf and wordBuf are ConvergedWith's reusable page and word
	// lists, so a convergence proof allocates nothing once they have
	// grown.
	pageBuf, wordBuf []int

	// stopAt, when >= 0, makes the run loop return cleanly (no error) at
	// the first instruction boundary where stats.Instructions reaches it —
	// the RunUntil mechanism behind the fault campaigns' interval
	// checkpoints and fault-site fast-forwarding. -1 (set by every
	// Run/Resume entry point) disables the check. stopped records whether
	// the last run segment ended at the boundary rather than at program
	// completion.
	stopAt  int64
	stopped bool

	// Reusable operand buffers for the execution hot path (one execInto call
	// uses at most one of each). bufA/bufB/bufMat are spill targets for
	// zero-copy scratchpad views (mem.Scratchpad.NumsView) and are only
	// populated when the host layout forbids aliasing; bufOut and bufAcc
	// hold results before they are stored.
	bufA, bufB, bufOut, bufMat []fixed.Num
	bufAcc                     []fixed.Acc
}

// New builds a machine with the given configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	m := &Machine{cfg: cfg}
	var err error
	if m.vspad, err = mem.NewScratchpad("vector-spad", cfg.VectorSpadBytes, cfg.SpadBanks, cfg.BankBytes); err != nil {
		return nil, err
	}
	if m.mspad, err = mem.NewScratchpad("matrix-spad", cfg.MatrixSpadBytes, cfg.SpadBanks, cfg.BankBytes); err != nil {
		return nil, err
	}
	if m.main, err = mem.NewMain(cfg.MainMemBytes); err != nil {
		return nil, err
	}
	m.Reset()
	return m, nil
}

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Reset clears registers, PC, statistics and pipeline state. Memory
// contents are preserved so a program can be re-run over a loaded image;
// use New for a fully fresh machine.
func (m *Machine) Reset() {
	m.gpr = [core.NumGPRs]uint32{}
	m.pc = 0
	m.rng = m.cfg.Seed
	if m.rng == 0 {
		m.rng = 1
	}
	m.stats = Stats{}
	m.pipe.init(&m.cfg, &m.stats)
}

// Reconfigure rebinds the machine to a different configuration that
// shares its memory geometry (main-memory size, scratchpad capacities
// and banking), reusing the existing — dominant, 16 MiB — memory
// allocations instead of building a fresh machine. The machine comes
// back Reset with no program loaded and its snapshot lineage dropped;
// memory contents are stale, so callers must Restore a snapshot (or
// load a fresh image) before running, exactly like a pool-recycled
// machine. A geometry mismatch is an error and leaves the machine
// unchanged.
func (m *Machine) Reconfigure(cfg Config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.MainMemBytes != m.cfg.MainMemBytes ||
		cfg.VectorSpadBytes != m.cfg.VectorSpadBytes ||
		cfg.MatrixSpadBytes != m.cfg.MatrixSpadBytes ||
		cfg.SpadBanks != m.cfg.SpadBanks ||
		cfg.BankBytes != m.cfg.BankBytes {
		return fmt.Errorf("sim: reconfigure: memory geometry mismatch (have %d/%d/%d banks=%d line=%d, want %d/%d/%d banks=%d line=%d)",
			m.cfg.MainMemBytes, m.cfg.VectorSpadBytes, m.cfg.MatrixSpadBytes, m.cfg.SpadBanks, m.cfg.BankBytes,
			cfg.MainMemBytes, cfg.VectorSpadBytes, cfg.MatrixSpadBytes, cfg.SpadBanks, cfg.BankBytes)
	}
	m.cfg = cfg
	m.dec = nil
	m.lastSnap = nil
	for _, mm := range m.memories() {
		mm.DropDirtyTracking()
	}
	m.Reset()
	return nil
}

// LoadProgram validates and pre-decodes prog (see Predecode) and installs
// it; the program must not be mutated afterwards. Run accepts handcrafted
// instruction slices, not just assembler output, and execution indexes
// register files by operand fields, so an invalid instruction never
// reaches a run loop: every Run of the program fails with a
// *RuntimeError naming the first invalid instruction's pc, before
// anything executes. Machines that share one program use LoadDecoded to
// pay the decode once.
func (m *Machine) LoadProgram(prog []core.Instruction) {
	dp, err := Predecode(prog)
	if err != nil {
		dp = &DecodedProgram{insts: prog, err: err}
		for pc := range prog {
			if verr := prog[pc].Validate(); verr != nil {
				dp.err = &RuntimeError{PC: pc, Inst: prog[pc], Err: verr}
				break
			}
		}
	}
	m.LoadDecoded(dp)
}

// SetGPR initializes a register (argument passing before Run).
func (m *Machine) SetGPR(r uint8, v uint32) {
	m.gpr[r] = v
}

// WriteMainNums places fixed-point data in main memory (workload images).
func (m *Machine) WriteMainNums(addr int, ns []fixed.Num) error {
	return m.main.WriteNums(addr, ns)
}

// ReadMainNums reads fixed-point data from main memory (results).
func (m *Machine) ReadMainNums(addr, count int) ([]fixed.Num, error) {
	return m.main.ReadNums(addr, count)
}

// ReadMainBytesInto copies len(dst) raw bytes from main memory into dst
// without allocating. Fixed-point data is stored little-endian, so this
// is also the allocation-free way to serialize a result region.
func (m *Machine) ReadMainBytesInto(addr int, dst []byte) error {
	return m.main.ReadBytesInto(addr, dst)
}

// DiffMain compares len(want) bytes of main memory at addr with want in
// place, without allocating, and returns the offset of the first
// differing byte, or -1 when they are equal (output checks of repeated
// runs).
func (m *Machine) DiffMain(addr int, want []byte) (int, error) {
	return m.main.Diff(addr, want)
}

// SetTracer attaches an observability sink (see internal/trace), the
// one way a run is observed: per committed instruction the tracer
// receives the instruction that ran, its fetch-to-commit stage
// timestamps, functional-unit and DMA spans, and the stall attribution
// of its commit window; scratchpad crossbar serialization is reported as
// bank-conflict events and injected faults as fault events. Combine
// sinks with trace.Tee; trace.NewText is the per-instruction text trace.
// nil (the default) disables tracing; the untraced hot path makes no
// trace calls and stays allocation-free, and attaching a tracer never
// changes simulated cycle counts.
func (m *Machine) SetTracer(t trace.Tracer) {
	m.tracer = t
	if t == nil {
		m.vspad.SetConflictHook(nil)
		m.mspad.SetConflictHook(nil)
		return
	}
	m.vspad.SetConflictHook(func(bank, extra int) {
		t.BankConflict(m.vspad.Name(), bank, int64(extra), m.pipe.LastCommit)
	})
	m.mspad.SetConflictHook(func(bank, extra int) {
		t.BankConflict(m.mspad.Name(), bank, int64(extra), m.pipe.LastCommit)
	})
}

// runMeta summarizes the configuration for trace sinks.
func (m *Machine) runMeta() trace.RunMeta {
	return trace.RunMeta{
		ClockHz:      m.cfg.ClockHz,
		VectorLanes:  m.cfg.VectorLanes,
		MatrixBlocks: m.cfg.MatrixBlocks,
		MACsPerBlock: m.cfg.MACsPerBlock,
		SpadBanks:    m.cfg.SpadBanks,
	}
}

// SetInjector attaches a fault injector (see internal/fault): the
// machine hands it the fetch stream, the pre-execute state hook, DMA
// payloads and functional-unit lane queries. nil (the default) disables
// injection; the fault-free hot path makes no injector calls, stays
// allocation-free, and produces bit-identical cycle counts.
func (m *Machine) SetInjector(inj fault.Injector) { m.inj = inj }

// FlipGPRBit implements fault.State: it flips bit (mod 32) of scalar
// register reg (mod 64).
func (m *Machine) FlipGPRBit(reg, bit uint8) {
	m.gpr[int(reg)%core.NumGPRs] ^= 1 << (bit % 32)
	m.noteFault("gpr-bit")
}

// FlipSpadBit implements fault.State: it flips bit (mod 16) of the
// 16-bit word at element index word of the selected scratchpad,
// reporting whether the word was in range.
func (m *Machine) FlipSpadBit(space fault.Space, word int, bit uint8) bool {
	pad := m.vspad
	if space == fault.SpaceMatrix {
		pad = m.mspad
	}
	// One 16-bit element = 2 bytes; route the flip to the right byte.
	ok := pad.FlipBit(2*word+int(bit%16)/8, bit%8)
	if ok {
		m.noteFault("spad-bit")
	}
	return ok
}

// noteFault records one applied fault in the run's statistics and
// reports it to the tracer, if one is attached.
func (m *Machine) noteFault(kind string) {
	m.stats.FaultsInjected++
	if m.tracer != nil {
		m.tracer.Fault(kind, m.pc, m.pipe.LastCommit)
	}
}

// RuntimeError reports a fault during execution, tied to the program
// counter and instruction that caused it.
type RuntimeError struct {
	PC   int
	Inst core.Instruction
	Err  error
}

func (e *RuntimeError) Error() string {
	return fmt.Sprintf("sim: pc=%d %v: %v", e.PC, e.Inst, e.Err)
}

func (e *RuntimeError) Unwrap() error { return e.Err }

// WatchdogError reports a run terminated by the Config.MaxCycles
// watchdog: the simulated clock passed the budget before the program
// committed its last instruction. The diagnostic names the oldest
// in-flight (committing) instruction and the pipeline stage it occupied
// when the budget ran out.
type WatchdogError struct {
	// PC and Inst identify the oldest uncommitted instruction.
	PC   int
	Inst core.Instruction
	// Index is its dynamic instruction index.
	Index int64
	// Cycle is the commit cycle that tripped the budget; Limit the
	// configured budget.
	Cycle int64
	Limit int64
	// Stage names the pipeline stage the instruction occupied at the
	// budget cycle (fetch-wait, fetch, decode/issue, dispatch, execute,
	// commit).
	Stage string
}

func (e *WatchdogError) Error() string {
	return fmt.Sprintf("sim: watchdog: cycle budget %d exceeded (commit at cycle %d): oldest stuck instruction #%d pc=%d %v in %s stage",
		e.Limit, e.Cycle, e.Index, e.PC, e.Inst, e.Stage)
}

// stageAt maps a cycle to the pipeline stage an instruction occupied at
// that cycle, given its stage timestamps.
func stageAt(ev *trace.InstEvent, cycle int64) string {
	switch {
	case cycle < ev.Fetch:
		return "fetch-wait"
	case cycle < ev.Decode:
		return "fetch"
	case cycle < ev.Issue:
		return "decode/issue"
	case cycle < ev.ExecStart:
		return "dispatch"
	case cycle <= ev.ExecDone:
		return "execute"
	}
	return "commit"
}

// Run executes the loaded program from PC 0 until it falls off the end of
// the instruction stream, returning run statistics. A program that exceeds
// MaxDynamicInstructions fails (runaway-loop guard). Run is
// RunContext without cancellation.
func (m *Machine) Run() (Stats, error) {
	return m.RunContext(context.Background())
}

// RunContext is Run with cooperative cancellation: the context is polled
// every 1024 dynamic instructions (cheap enough to be invisible, frequent
// enough that even all-scalar programs respond within microseconds), and
// a canceled run returns ctx.Err() with the statistics accumulated so
// far. When Config.MaxCycles is positive a watchdog also ends the run
// with a *WatchdogError as soon as an instruction commits past the
// budget — the structured escape hatch for programs that make dynamic
// progress without ever finishing (livelock under fault injection,
// runaway loops).
func (m *Machine) RunContext(ctx context.Context) (Stats, error) {
	m.pc = 0
	m.stopAt = -1
	return m.resume(ctx)
}

// Resume continues execution from the machine's current state — after a
// RunUntil stop or a Restore of a snapshot taken mid-run — until the
// program ends, returning the accumulated run statistics. Resuming a
// completed run returns immediately. The resumed remainder is
// bit-identical (in statistics, cycles, traces and fault behaviour) to
// the uninterrupted run.
func (m *Machine) Resume() (Stats, error) {
	m.stopAt = -1
	return m.resume(context.Background())
}

// RunUntil continues execution from the machine's current state until
// the accumulated dynamic instruction count reaches n (returning at that
// exact instruction boundary with done=false) or the program ends first
// (done=true). Stopping never perturbs simulated state: any interleaving
// of RunUntil segments, Snapshot captures and Resume produces the same
// statistics, cycles and traces as one uninterrupted run. Start from PC 0
// by calling it on a machine that was Reset or restored to a snapshot
// taken before a run.
func (m *Machine) RunUntil(n int64) (Stats, bool, error) {
	if n < 0 {
		n = 0
	}
	m.stopAt = n
	stats, err := m.resume(context.Background())
	m.stopAt = -1
	return stats, err == nil && !m.stopped, err
}

// resume runs the current run segment through the run loop, observed
// or not.
func (m *Machine) resume(ctx context.Context) (Stats, error) {
	m.stopped = false
	switch {
	case m.dec == nil:
		return m.stats, nil // no program loaded: nothing to run
	case m.dec.err != nil:
		return m.stats, m.dec.err
	}
	return m.runDecoded(ctx)
}

// regInt reads a GPR as a signed 32-bit integer.
func (m *Machine) regInt(r uint8) int32 { return int32(m.gpr[r]) }

// regAddr reads a GPR as a byte address.
func (m *Machine) regAddr(r uint8) int { return int(int32(m.gpr[r])) }

// regSize reads a GPR as an element count, rejecting negatives.
func (m *Machine) regSize(r uint8) (int, error) {
	v := int(int32(m.gpr[r]))
	if v < 0 {
		return 0, fmt.Errorf("negative size %d in $%d", v, r)
	}
	return v, nil
}

// tailInt resolves a TailRegImm operand (register index idx when the tail
// is a register) as a signed scalar.
func (m *Machine) tailInt(inst core.Instruction, idx int) int32 {
	if inst.TailImm {
		return inst.Imm
	}
	return m.regInt(inst.R[idx])
}

// scratch returns buf resized to n elements, growing its backing array only
// when needed.
func scratch(buf *[]fixed.Num, n int) []fixed.Num {
	if cap(*buf) < n {
		*buf = make([]fixed.Num, n)
	}
	return (*buf)[:n]
}

// scratchAcc is scratch for accumulator buffers.
func scratchAcc(buf *[]fixed.Acc, n int) []fixed.Acc {
	if cap(*buf) < n {
		*buf = make([]fixed.Acc, n)
	}
	return (*buf)[:n]
}

// nextRand steps the xorshift64* PRNG and returns a fixed-point value
// uniform over [0, 1).
func (m *Machine) nextRand() fixed.Num {
	x := m.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	m.rng = x
	v := (x * 0x2545f4914f6cdd1d) >> 56 // 8 random bits
	return fixed.Num(v)                 // 0..255 = [0,1) in Q8.8
}

// Package trace is the observability layer of the Cambricon-ACC
// simulator: a low-overhead event stream threaded through the seven-stage
// pipeline of internal/sim, with sinks that turn it into a Chrome Trace
// Event / Perfetto timeline (Chrome), a streaming stall-attribution
// profile (Profile) or a plain per-instruction text trace (Text).
//
// The contract with the simulator's hot path is strict: a Machine with a
// nil Tracer makes no trace calls at all and allocates nothing, and a
// Machine with any Tracer attached must produce bit-identical simulated
// cycle counts — tracing observes the timing model, it never perturbs it.
// Sinks receive events through pointers to buffers the simulator reuses,
// so they must copy anything they keep beyond the call.
package trace

import (
	"encoding/json"
	"fmt"

	"cambricon/internal/core"
)

// Tracer receives the event stream of one simulation run. Implementations
// must not retain *InstEvent pointers across calls: the simulator reuses
// one event buffer for the whole run.
type Tracer interface {
	// BeginRun opens a run and carries the machine parameters the sinks
	// need to scale their output (clock, lane counts, bank counts).
	BeginRun(meta RunMeta)
	// Instruction reports one committed dynamic instruction with its
	// stage timestamps and the stall attribution of its commit window.
	Instruction(ev *InstEvent)
	// BankConflict reports crossbar serialization on a scratchpad: an
	// access set kept the named bank busy extraCycles beyond the ideal
	// parallel streaming cost. atCycle is the approximate simulated time
	// (the last commit when the conflict was modelled).
	BankConflict(spad string, bank int, extraCycles, atCycle int64)
	// EndRun closes a run with the total simulated cycle count.
	EndRun(totalCycles int64)
	// Fault reports one injected fault (see internal/fault): its model
	// kind (e.g. "gpr-bit"), the program counter of the instruction it
	// hit, and the approximate simulated cycle (the last commit when the
	// fault was applied). Fault-free runs never call it.
	Fault(kind string, pc int, atCycle int64)
}

// RunMeta describes the machine a run executes on.
type RunMeta struct {
	ClockHz      float64 `json:"clock_hz"`
	VectorLanes  int     `json:"vector_lanes"`
	MatrixBlocks int     `json:"matrix_blocks"`
	MACsPerBlock int     `json:"macs_per_block"`
	SpadBanks    int     `json:"spad_banks"`
}

// FU identifies the execution resource of an instruction. The values
// mirror internal/sim's routing (Fig. 8).
type FU uint8

const (
	FUScalar    FU = iota // scalar functional unit
	FUScalarMem           // scalar load/store via AGU + L1
	FUVector              // vector functional unit (and its DMAs)
	FUMatrix              // matrix functional unit (and its DMAs)

	NumFUs = 4
)

func (f FU) String() string {
	switch f {
	case FUScalar:
		return "scalar"
	case FUScalarMem:
		return "l1"
	case FUVector:
		return "vector"
	case FUMatrix:
		return "matrix"
	}
	return fmt.Sprintf("fu(%d)", uint8(f))
}

// Cause labels one slice of a CPI stack: what the committing
// instruction's critical path was doing (or waiting on) during a cycle.
type Cause uint8

const (
	// CauseCompute is useful work: register read, address generation,
	// functional-unit execution and write-back.
	CauseCompute Cause = iota
	// CauseMemDep is time in the memory queue behind an earlier
	// overlapping access (the paper's footnote-2 dependence rule).
	CauseMemDep
	// CauseFUBusy is a ready instruction waiting for an occupied
	// functional unit (the Section V-B3 pipeline bubbles).
	CauseFUBusy
	// CauseRegDep is an issue-stage wait for a source register.
	CauseRegDep
	// CauseROBFull is an issue-stage wait for reorder-buffer space.
	CauseROBFull
	// CauseMemQueueFull is an issue-stage wait for memory-queue space.
	CauseMemQueueFull
	// CauseIQFull is a fetch blocked on issue-queue space.
	CauseIQFull
	// CauseBranch is the fetch bubble after a taken branch redirect.
	CauseBranch
	// CauseCommit is an in-order or bandwidth-limited commit wait.
	CauseCommit
	// CauseFrontend is remaining fetch/decode/issue bandwidth and
	// in-order issue serialization.
	CauseFrontend

	// NumCauses sizes per-cause accumulators.
	NumCauses = 10
)

var causeNames = [NumCauses]string{
	"compute", "mem-dep", "fu-busy", "reg-dep", "rob-full",
	"memq-full", "iq-full", "branch", "commit-bw", "frontend",
}

func (c Cause) String() string {
	if int(c) < len(causeNames) {
		return causeNames[c]
	}
	return fmt.Sprintf("cause(%d)", uint8(c))
}

// Causes lists every cause in declaration order.
func Causes() []Cause {
	out := make([]Cause, NumCauses)
	for i := range out {
		out[i] = Cause(i)
	}
	return out
}

// Breakdown is a CPI stack: cycles per cause. Indexed by Cause, it
// marshals as a JSON object keyed by cause name.
type Breakdown [NumCauses]int64

// Sum returns the total attributed cycles.
func (b *Breakdown) Sum() int64 {
	var s int64
	for _, v := range b {
		s += v
	}
	return s
}

// MarshalJSON renders the stack as {"compute": N, "mem-dep": N, ...}.
func (b Breakdown) MarshalJSON() ([]byte, error) {
	buf := make([]byte, 0, 16*NumCauses)
	buf = append(buf, '{')
	for i, v := range b {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, causeNames[i]...)
		buf = append(buf, '"', ':')
		buf = appendInt(buf, v)
	}
	return append(buf, '}'), nil
}

// UnmarshalJSON parses the object form produced by MarshalJSON; unknown
// keys are rejected so schema drift is caught early.
func (b *Breakdown) UnmarshalJSON(data []byte) error {
	var m map[string]int64
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*b = Breakdown{}
	for k, v := range m {
		found := false
		for i, name := range causeNames {
			if k == name {
				b[i] = v
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("trace: unknown stall cause %q", k)
		}
	}
	return nil
}

func appendInt(buf []byte, v int64) []byte {
	if v < 0 {
		buf = append(buf, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(buf, tmp[i:]...)
}

// InstEvent is the trace record of one committed dynamic instruction.
// All times are simulated cycles.
type InstEvent struct {
	// Index is the dynamic instruction index (0-based) and PC the static
	// program counter. Inst is the instruction that ran: under a fetch
	// fault the corrupted one, not the program's.
	Index int64
	PC    int
	Inst  core.Instruction
	FU    FU

	// Stage timestamps: the cycle each pipeline milestone was reached.
	// Fetch <= Decode <= Issue <= ExecStart <= ExecDone < Commit.
	Fetch, Decode, Issue        int64
	ExecStart, ExecDone, Commit int64

	// ExecCycles is the functional-unit occupancy (ExecDone - ExecStart).
	ExecCycles int64

	// BranchTaken marks a taken branch and Target its destination pc.
	BranchTaken bool
	Target      int

	// IsDMA marks scratchpad<->main-memory transfers (VLOAD, VSTORE,
	// MLOAD, MSTORE); DMABytes is the transfer size.
	IsDMA    bool
	DMABytes int

	// Gap is the width of this instruction's commit window — the cycles
	// between the previous commit and this one — and Attr distributes
	// every one of those cycles over stall causes. Summing Gap (or Attr)
	// over all instructions of a run yields exactly the total cycle
	// count, which is what makes profile tables add up.
	Gap  int64
	Attr Breakdown

	// Latency view: how long this instruction itself waited at each
	// pipeline obstacle, regardless of what else was in flight. Unlike
	// Attr these overlap across instructions (ten instructions queued
	// behind one busy unit each record the full wait), so they explain
	// per-instruction latency, not wall-clock cycles.
	RegWait, ROBWait, MemQueueWait, MemDepWait, FUBusyWait int64
}

// Tee fans one event stream out to several sinks, calling each in
// argument order. Nil entries are dropped; with zero live sinks it
// returns nil, so a machine it is attached to stays unobserved.
func Tee(ts ...Tracer) Tracer {
	live := make([]Tracer, 0, len(ts))
	for _, t := range ts {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Tracer

func (t tee) BeginRun(meta RunMeta) {
	for _, s := range t {
		s.BeginRun(meta)
	}
}

func (t tee) Instruction(ev *InstEvent) {
	for _, s := range t {
		s.Instruction(ev)
	}
}

func (t tee) BankConflict(spad string, bank int, extraCycles, atCycle int64) {
	for _, s := range t {
		s.BankConflict(spad, bank, extraCycles, atCycle)
	}
}

func (t tee) EndRun(totalCycles int64) {
	for _, s := range t {
		s.EndRun(totalCycles)
	}
}

func (t tee) Fault(kind string, pc int, atCycle int64) {
	for _, s := range t {
		s.Fault(kind, pc, atCycle)
	}
}

package sim

import (
	"fmt"
	"sort"
	"strings"

	"cambricon/internal/core"
	"cambricon/internal/trace"
)

// Stats aggregates a run's dynamic behaviour. Cycle counts come from the
// timing model; activity counts feed the energy model in internal/energy.
type Stats struct {
	// Cycles is the total execution time in cycles (commit of the last
	// instruction).
	Cycles int64
	// Instructions is the dynamic instruction count.
	Instructions int64
	// ByType counts dynamic instructions per Fig. 11 category.
	ByType [core.NumTypes]int64
	// ByOpcode counts dynamic instructions per opcode (index by
	// core.Opcode; index 0 is unused).
	ByOpcode [core.NumInstructions + 1]int64

	// BranchesTaken counts taken control-flow redirects.
	BranchesTaken int64

	// VectorBusyCycles is the vector functional unit's occupied time.
	VectorBusyCycles int64
	// VectorElems counts 16-bit element operations in the vector unit.
	VectorElems int64
	// MatrixBusyCycles is the matrix functional unit's occupied time.
	MatrixBusyCycles int64
	// MACOps counts multiply-accumulate element operations in the matrix
	// unit.
	MACOps int64
	// TranscendentalElems counts CORDIC element operations.
	TranscendentalElems int64

	// DMABytes counts main-memory traffic (both directions).
	DMABytes int64
	// SpadBytes counts scratchpad traffic (reads + writes).
	SpadBytes int64
	// BankConflictCycles counts extra cycles serialized by the Fig. 9
	// crossbar.
	BankConflictCycles int64

	// FaultsInjected counts faults the attached fault.Injector actually
	// applied during the run (zero, and omitted from JSON, on fault-free
	// runs).
	FaultsInjected int64 `json:",omitempty"`

	// Stalls is the attributed CPI stack: every cycle of the run charged
	// to exactly one cause (see pipeline.advanceWith). Unlike the
	// per-instruction wait totals a trace.Profile reports — which sum
	// each instruction's own waits and therefore double-count wall-clock
	// cycles when several instructions wait out the same interval — the
	// attributed buckets are disjoint by construction and sum to exactly
	// Cycles on a completed run (CheckConsistency enforces this).
	Stalls trace.Breakdown `json:"StallBreakdown"`
}

// CheckConsistency verifies the run's cycle accounting invariants:
// the attributed stall breakdown must cover every cycle exactly once,
// and no single-resource busy counter can exceed the run length. It
// reports the first violated invariant. Valid after a completed Run;
// a run that faulted mid-program still satisfies these checks because
// Cycles tracks the last committed instruction.
func (s *Stats) CheckConsistency() error {
	for i, v := range s.Stalls {
		if v < 0 {
			return fmt.Errorf("sim: stall bucket %v is negative (%d)", trace.Cause(i), v)
		}
	}
	if sum := s.Stalls.Sum(); sum != s.Cycles {
		return fmt.Errorf("sim: attributed stall cycles sum to %d, want exactly Cycles=%d", sum, s.Cycles)
	}
	if s.VectorBusyCycles > s.Cycles {
		return fmt.Errorf("sim: VectorBusyCycles %d exceeds Cycles %d", s.VectorBusyCycles, s.Cycles)
	}
	if s.MatrixBusyCycles > s.Cycles {
		return fmt.Errorf("sim: MatrixBusyCycles %d exceeds Cycles %d", s.MatrixBusyCycles, s.Cycles)
	}
	if s.BankConflictCycles < 0 {
		return fmt.Errorf("sim: BankConflictCycles is negative (%d)", s.BankConflictCycles)
	}
	return nil
}

// OpcodeCount is one entry of a dynamic opcode histogram.
type OpcodeCount struct {
	Op    core.Opcode
	Count int64
}

// TopOpcodes returns the n most-executed opcodes, descending.
func (s *Stats) TopOpcodes(n int) []OpcodeCount {
	var all []OpcodeCount
	for op := 1; op < len(s.ByOpcode); op++ {
		if s.ByOpcode[op] > 0 {
			all = append(all, OpcodeCount{Op: core.Opcode(op), Count: s.ByOpcode[op]})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Op < all[j].Op
	})
	if n > 0 && len(all) > n {
		all = all[:n]
	}
	return all
}

// Seconds converts the cycle count to wall-clock time at the given clock.
func (s *Stats) Seconds(clockHz float64) float64 {
	return float64(s.Cycles) / clockHz
}

// Utilization returns the busy fraction of the vector and matrix units.
func (s *Stats) Utilization() (vector, matrix float64) {
	if s.Cycles == 0 {
		return 0, 0
	}
	return float64(s.VectorBusyCycles) / float64(s.Cycles),
		float64(s.MatrixBusyCycles) / float64(s.Cycles)
}

// String renders a human-readable summary.
func (s *Stats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles=%d instructions=%d (", s.Cycles, s.Instructions)
	for i, typ := range core.Types() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%d", typ, s.ByType[typ])
	}
	vu, mu := s.Utilization()
	fmt.Fprintf(&b, ") vectorUtil=%.1f%% matrixUtil=%.1f%% macs=%d dmaBytes=%d",
		100*vu, 100*mu, s.MACOps, s.DMABytes)
	return b.String()
}

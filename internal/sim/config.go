// Package sim implements a cycle-approximate simulator of the Cambricon-ACC
// prototype accelerator (Section IV of the paper).
//
// The simulator combines exact functional execution of all 43 Cambricon
// instructions (16-bit fixed-point datapath, scratchpad-resident vectors and
// matrices, 64 32-bit GPRs) with a timestamp-propagation timing model of the
// seven-stage pipeline in Fig. 8: fetching, decoding, issuing, register
// reading, execution, writing back and committing. The model reproduces the
// microarchitectural behaviours the paper's evaluation depends on:
//
//   - 2-wide in-order issue with a bounded issue queue and reorder buffer;
//   - an in-order memory queue that stalls instructions on overlapping
//     memory regions when at least one access writes (the paper's memory
//     dependence rule, footnote 2);
//   - separate scalar, vector (32-lane) and matrix (32 blocks x 32 MACs)
//     functional units, occupied for the duration of an operation — the
//     source of the pipeline bubbles that make Cambricon-ACC slightly
//     slower than DaDianNao on shared benchmarks (Section V-B3);
//   - banked scratchpads with the Fig. 9 crossbar conflict model and
//     DMA-based main-memory transfers.
package sim

import (
	"fmt"

	"cambricon/internal/core"
)

// Config carries the microarchitectural parameters of the accelerator.
// DefaultConfig returns the published Table II prototype.
type Config struct {
	// IssueWidth is the number of instructions issued (and committed) per
	// cycle.
	IssueWidth int
	// IssueQueueDepth bounds the in-order issue queue.
	IssueQueueDepth int
	// MemQueueDepth bounds the in-order memory queue.
	MemQueueDepth int
	// ROBDepth bounds the reorder buffer.
	ROBDepth int

	// VectorSpadBytes is the vector scratchpad capacity.
	VectorSpadBytes int
	// MatrixSpadBytes is the matrix scratchpad capacity.
	MatrixSpadBytes int
	// BankBytes is the scratchpad bank line width in bytes (Table II:
	// 512 bits).
	BankBytes int
	// SpadBanks is the number of banks per scratchpad port group (Fig. 9
	// decomposes on the low-order two address bits: four banks).
	SpadBanks int

	// VectorLanes is the number of 16-bit vector ALUs (Table II: 32
	// multipliers & dividers & adders & transcendental operators).
	VectorLanes int
	// MatrixBlocks and MACsPerBlock describe the matrix unit (Table II:
	// 1024 multipliers & adders as 32 blocks of 32).
	MatrixBlocks int
	MACsPerBlock int
	// HTreeOverhead is the fixed broadcast/collect latency of the h-tree
	// bus connecting the 32 matrix blocks, charged once per matrix
	// instruction.
	HTreeOverhead int

	// CordicBeatCycles is the per-beat cost multiplier of transcendental
	// vector/scalar operations (CORDIC iterations, Section III-B).
	CordicBeatCycles int
	// DivBeatCycles is the per-beat cost multiplier of vector division.
	DivBeatCycles int

	// MainMemBytes sizes the off-chip memory.
	MainMemBytes int
	// DMAStartupCycles and DMABytesPerCycle describe each DMA engine.
	DMAStartupCycles int
	DMABytesPerCycle int

	// BranchPenaltyCycles is the redirect cost of a taken branch in the
	// seven-stage pipeline.
	BranchPenaltyCycles int

	// ClockHz converts cycles to seconds (1 GHz prototype).
	ClockHz float64

	// Seed initializes the RV instruction's pseudo-random generator so
	// runs are reproducible.
	Seed uint64

	// MaxDynamicInstructions aborts runaway programs. Zero means the
	// default cap.
	MaxDynamicInstructions int64

	// MaxCycles is the watchdog budget: a run whose simulated clock
	// passes this cycle count before the program finishes ends with a
	// *WatchdogError naming the oldest stuck instruction and its
	// pipeline stage. Zero (the default) disables the watchdog — the
	// dynamic-instruction cap still bounds every run.
	MaxCycles int64
}

// DefaultConfig returns the Table II prototype parameters.
func DefaultConfig() Config {
	return Config{
		IssueWidth:      2,
		IssueQueueDepth: 24,
		MemQueueDepth:   32,
		ROBDepth:        64,

		VectorSpadBytes: core.VectorSpadBytes,
		MatrixSpadBytes: core.MatrixSpadBytes,
		BankBytes:       64, // 512 bits
		SpadBanks:       4,

		VectorLanes:   32,
		MatrixBlocks:  32,
		MACsPerBlock:  32,
		HTreeOverhead: 6,

		CordicBeatCycles: 4,
		DivBeatCycles:    4,

		MainMemBytes:     16 << 20,
		DMAStartupCycles: 24,
		DMABytesPerCycle: 32,

		BranchPenaltyCycles: 4,

		ClockHz: 1e9,

		Seed: 0x5eed,

		MaxDynamicInstructions: 64 << 20,
	}
}

// Upper bounds on the fields that size allocations: the three memories,
// the pipeline rings and the scratchpads' per-bank counters. A checkpoint
// file carries its configuration, so without them a valid-CRC file could
// make sim.New ask for any amount of memory.
const (
	maxMemBytes = 1 << 30 // main memory and each scratchpad
	maxEntries  = 1 << 16 // ring depths and scratchpad banks
)

// validate fills defaults and rejects nonsensical geometry. Every divisor
// the timing model uses on its hot paths (VectorLanes, MatrixBlocks,
// MACsPerBlock, BankBytes, DMABytesPerCycle, beat-cost multipliers) is
// guaranteed positive here, once, so the per-instruction cycle math never
// needs to re-check or clamp. Every field that sizes an allocation is
// bounded here too, so nothing is sized from an unchecked value.
func (c *Config) validate() error {
	if c.IssueWidth <= 0 {
		c.IssueWidth = 1
	}
	if c.IssueQueueDepth <= 0 {
		c.IssueQueueDepth = 1
	}
	if c.MemQueueDepth <= 0 {
		c.MemQueueDepth = 1
	}
	if c.ROBDepth <= 0 {
		c.ROBDepth = 1
	}
	if c.MaxDynamicInstructions <= 0 {
		c.MaxDynamicInstructions = 64 << 20
	}
	if c.MaxCycles < 0 {
		c.MaxCycles = 0
	}
	if c.ClockHz <= 0 {
		c.ClockHz = 1e9
	}
	if c.VectorLanes <= 0 {
		c.VectorLanes = 1
	}
	if c.MatrixBlocks <= 0 {
		c.MatrixBlocks = 1
	}
	if c.MACsPerBlock <= 0 {
		c.MACsPerBlock = 1
	}
	if c.CordicBeatCycles <= 0 {
		c.CordicBeatCycles = 1
	}
	if c.DivBeatCycles <= 0 {
		c.DivBeatCycles = 1
	}
	if c.VectorSpadBytes <= 0 {
		c.VectorSpadBytes = core.VectorSpadBytes
	}
	if c.MatrixSpadBytes <= 0 {
		c.MatrixSpadBytes = core.MatrixSpadBytes
	}
	if c.BankBytes <= 0 {
		c.BankBytes = 64
	}
	if c.SpadBanks <= 0 {
		c.SpadBanks = 4
	}
	if c.SpadBanks&(c.SpadBanks-1) != 0 {
		return fmt.Errorf("sim: SpadBanks %d must be a power of two", c.SpadBanks)
	}
	if c.MainMemBytes <= 0 {
		c.MainMemBytes = 16 << 20
	}
	if c.DMABytesPerCycle <= 0 {
		c.DMABytesPerCycle = 1
	}
	if c.DMAStartupCycles < 0 {
		c.DMAStartupCycles = 0
	}
	if c.HTreeOverhead < 0 {
		c.HTreeOverhead = 0
	}
	if c.BranchPenaltyCycles < 0 {
		c.BranchPenaltyCycles = 0
	}
	for _, f := range [...]struct {
		name   string
		v, max int
	}{
		{"MainMemBytes", c.MainMemBytes, maxMemBytes},
		{"VectorSpadBytes", c.VectorSpadBytes, maxMemBytes},
		{"MatrixSpadBytes", c.MatrixSpadBytes, maxMemBytes},
		{"IssueQueueDepth", c.IssueQueueDepth, maxEntries},
		{"ROBDepth", c.ROBDepth, maxEntries},
		{"MemQueueDepth", c.MemQueueDepth, maxEntries},
		{"SpadBanks", c.SpadBanks, maxEntries},
	} {
		if f.v > f.max {
			return fmt.Errorf("sim: %s %d exceeds the limit %d", f.name, f.v, f.max)
		}
	}
	return nil
}

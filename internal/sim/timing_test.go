package sim

import (
	"fmt"
	"testing"

	"cambricon/internal/asm"
	"cambricon/internal/core"
	"cambricon/internal/fixed"
	"cambricon/internal/trace"
)

func cyclesOf(t *testing.T, cfg Config, src string, setup func(*Machine)) Stats {
	t.Helper()
	p, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := mustNew(t, cfg)
	if setup != nil {
		setup(m)
	}
	m.LoadProgram(p.Instructions)
	stats, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// waitsOf runs src like cyclesOf with a profile attached and returns the
// run's statistics and its per-instruction wait totals.
func waitsOf(t *testing.T, cfg Config, src string) (Stats, trace.LatencyWaits) {
	t.Helper()
	prof := trace.NewProfile()
	stats := cyclesOf(t, cfg, src, func(m *Machine) { m.SetTracer(prof) })
	return stats, prof.Report(0).Latency
}

func TestCyclesGrowWithVectorSize(t *testing.T) {
	prev := int64(0)
	for _, n := range []int{32, 256, 2048, 16384} {
		src := fmt.Sprintf(`
	SMOVE $1, #%d
	SMOVE $2, #0
	RV    $2, $1
	VEXP  $2, $1, $2
`, n)
		stats := cyclesOf(t, DefaultConfig(), src, nil)
		if stats.Cycles <= prev {
			t.Errorf("n=%d: cycles %d not greater than previous %d", n, stats.Cycles, prev)
		}
		prev = stats.Cycles
	}
}

func TestMemoryDependenceSerializes(t *testing.T) {
	// Dependent: second VAV reads the first's output region.
	dep := `
	SMOVE $1, #1024
	SMOVE $2, #0
	SMOVE $3, #4096
	SMOVE $4, #8192
	VAV   $3, $1, $2, $2
	VAV   $4, $1, $3, $3
`
	// Independent: same shape, but the second VAV reads a region no one
	// writes (reads never conflict with reads).
	indep := `
	SMOVE $1, #1024
	SMOVE $2, #0
	SMOVE $3, #4096
	SMOVE $4, #8192
	VAV   $3, $1, $2, $2
	VAV   $4, $1, $2, $2
`
	_, wd := waitsOf(t, DefaultConfig(), dep)
	_, wi := waitsOf(t, DefaultConfig(), indep)
	if wd.MemDep == 0 {
		t.Error("dependent chain should report memory-dependence waits")
	}
	if wi.MemDep != 0 {
		t.Errorf("independent ops should not wait on memory dependences, got %d",
			wi.MemDep)
	}
}

func TestTakenBranchesCostMoreThanStraightLine(t *testing.T) {
	// 64 scalar adds in a loop vs unrolled straight-line.
	loop := `
	SMOVE $1, #64
	SMOVE $2, #0
top:	SADD  $2, $2, #1
	SADD  $1, $1, #-1
	CB    #top, $1
`
	var b asm.Builder
	b.Op(core.SMOVE, asm.R(2), asm.Imm(0))
	for i := 0; i < 64; i++ {
		b.Op(core.SADD, asm.R(2), asm.R(2), asm.Imm(1))
	}
	sl := cyclesOf(t, DefaultConfig(), loop, nil)
	ss := cyclesOf(t, DefaultConfig(), b.Source(), nil)
	if sl.Cycles <= ss.Cycles {
		t.Errorf("loop (%d cycles) should exceed straight line (%d cycles)", sl.Cycles, ss.Cycles)
	}
	if sl.BranchesTaken != 63 {
		t.Errorf("taken branches = %d, want 63", sl.BranchesTaken)
	}
}

func TestNarrowIssueIsSlower(t *testing.T) {
	src := `
	SMOVE $1, #1024
	SMOVE $2, #0
	SMOVE $3, #4096
	RV    $2, $1
	VEXP  $3, $1, $2
	VAV   $3, $1, $2, $2
	VMV   $3, $1, $2, $2
`
	wide := DefaultConfig()
	narrow := DefaultConfig()
	narrow.IssueWidth = 1
	narrow.IssueQueueDepth = 2
	narrow.ROBDepth = 4
	sw := cyclesOf(t, wide, src, nil)
	sn := cyclesOf(t, narrow, src, nil)
	if sn.Cycles < sw.Cycles {
		t.Errorf("narrow machine (%d) should not beat Table II machine (%d)", sn.Cycles, sw.Cycles)
	}
}

// TestMMVBeatsDotProductDecomposition reproduces the Section III-A argument:
// computing Wx with one MMV is more efficient than decomposing it into
// per-row VDOT instructions.
func TestMMVBeatsDotProductDecomposition(t *testing.T) {
	const rows, cols = 64, 64
	mmv := fmt.Sprintf(`
	SMOVE $1, #%d
	SMOVE $2, #%d
	SMOVE $3, #%d
	SMOVE $4, #0
	SMOVE $5, #0
	SMOVE $6, #8192
	RV    $4, $1
	MMV   $6, $2, $5, $4, $1
`, cols, rows, rows*cols)
	var b asm.Builder
	b.Op(core.SMOVE, asm.R(1), asm.Imm(cols))
	b.Op(core.SMOVE, asm.R(4), asm.Imm(0))
	b.Op(core.RV, asm.R(4), asm.R(1))
	b.Op(core.SMOVE, asm.R(5), asm.Imm(8192)) // row vector base (reusing vspad)
	for r := 0; r < rows; r++ {
		b.Op(core.VDOT, asm.R(10), asm.R(1), asm.R(4), asm.R(5))
	}
	sm := cyclesOf(t, DefaultConfig(), mmv, nil)
	sd := cyclesOf(t, DefaultConfig(), b.Source(), nil)
	if sm.Cycles >= sd.Cycles {
		t.Errorf("MMV (%d cycles) should beat %d VDOTs (%d cycles)", sm.Cycles, rows, sd.Cycles)
	}
	if sm.MACOps != rows*cols {
		t.Errorf("MMV MACs = %d", sm.MACOps)
	}
}

func TestDMATimingDominatesLargeLoads(t *testing.T) {
	cfg := DefaultConfig()
	// 16K elements = 32KB at 32 B/cycle: at least 1024 cycles of DMA.
	src := `
	SMOVE $1, #16384
	SMOVE $2, #0
	VLOAD $2, $1, #0
`
	stats := cyclesOf(t, cfg, src, nil)
	if stats.Cycles < 1024 {
		t.Errorf("32KB load should cost >= 1024 cycles, got %d", stats.Cycles)
	}
	if stats.DMABytes != 32768 {
		t.Errorf("DMA bytes = %d", stats.DMABytes)
	}
}

func TestVectorAndMatrixUnitsOverlap(t *testing.T) {
	// A long matrix op followed by an independent vector op should
	// overlap: total < sum of serialized costs.
	overlap := `
	SMOVE $1, #128
	SMOVE $2, #16384
	SMOVE $3, #0
	SMOVE $4, #0
	SMOVE $5, #8192
	SMOVE $6, #16384
	SMOVE $7, #24576
	MMV   $5, $1, $4, $3, $1
	VEXP  $6, $1, $7
`
	stats, waits := waitsOf(t, DefaultConfig(), overlap)
	if stats.MatrixBusyCycles == 0 || stats.VectorBusyCycles == 0 {
		t.Fatal("both units should be active")
	}
	// The final VEXP is independent of the MMV output region, so the
	// vector unit should not wait for the matrix unit: no FU-busy stall
	// between them beyond the RV/VEXP chain.
	if waits.MemDep != 0 {
		t.Errorf("unexpected memory dependence waits: %d", waits.MemDep)
	}
}

func TestBankConflictAblation(t *testing.T) {
	// Fig. 9 ablation: operand regions that collide in the same bank
	// serialize; a single-bank scratchpad is never faster than the
	// four-bank crossbar design.
	conflict := `
	SMOVE $1, #32
	SMOVE $2, #0
	SMOVE $3, #256      // same bank as 0 with 4 banks x 64B lines
	SMOVE $4, #512      // same bank again
	RV    $2, $1
	RV    $3, $1
	VAV   $4, $1, $2, $3
`
	four := DefaultConfig()
	one := DefaultConfig()
	one.SpadBanks = 1
	sf := cyclesOf(t, four, conflict, nil)
	so := cyclesOf(t, one, conflict, nil)
	if sf.BankConflictCycles == 0 {
		t.Error("colliding regions should report bank conflicts")
	}
	if so.Cycles < sf.Cycles {
		t.Errorf("single bank (%d) should not beat 4 banks (%d)", so.Cycles, sf.Cycles)
	}
	disjoint := `
	SMOVE $1, #32
	SMOVE $2, #0
	SMOVE $3, #64
	SMOVE $4, #128
	RV    $2, $1
	RV    $3, $1
	VAV   $4, $1, $2, $3
`
	sd := cyclesOf(t, four, disjoint, nil)
	if sd.BankConflictCycles != 0 {
		t.Errorf("disjoint banks should not conflict, got %d", sd.BankConflictCycles)
	}
	if sd.Cycles > sf.Cycles {
		t.Errorf("disjoint layout (%d) should not be slower than conflicting (%d)", sd.Cycles, sf.Cycles)
	}
}

func TestStatsSecondsAndString(t *testing.T) {
	stats := Stats{Cycles: 2_000_000}
	if got := stats.Seconds(1e9); got != 0.002 {
		t.Errorf("Seconds = %v", got)
	}
	if stats.String() == "" {
		t.Error("empty String()")
	}
}

func TestResetPreservesMemoryClearsState(t *testing.T) {
	m := mustNew(t, DefaultConfig())
	if err := m.WriteMainNums(0, fixed.FromFloats([]float64{7})); err != nil {
		t.Fatal(err)
	}
	m.SetGPR(5, 123)
	m.Reset()
	if m.GPR(5) != 0 {
		t.Error("Reset must clear GPRs")
	}
	v, err := m.ReadMainNums(0, 1)
	if err != nil || v[0].Float() != 7 {
		t.Error("Reset must preserve main memory")
	}
}

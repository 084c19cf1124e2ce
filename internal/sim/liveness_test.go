package sim

// Tests for the golden-run access trace and the convergence proof
// (liveness.go): recording must be behaviour-neutral, the condensed
// liveness must know the golden DMA offers and where each unit's
// outputs reach each lane, and ConvergedWith must accept exactly the
// states whose remaining differences are dead.

import (
	"reflect"
	"testing"

	"cambricon/internal/core"
	"cambricon/internal/fault"
)

// recordGolden runs ckptKernel once with an access trace attached and
// returns the run-start snapshot, the final stats and the liveness. It
// fails unless the trace holds one record per executed instruction.
func recordGolden(t *testing.T, cfg Config, predecoded bool) (*Machine, *Snapshot, Stats, *Liveness) {
	t.Helper()
	m := ckptMachine(t, cfg, predecoded)
	start := m.Snapshot()
	rec := NewAccessTrace()
	m.SetAccessTrace(rec)
	st, err := m.Run()
	m.SetAccessTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := int64(len(rec.recs)); n != st.Instructions {
		t.Fatalf("access trace covers %d instructions, run executed %d", n, st.Instructions)
	}
	lv, err := rec.Liveness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, start, st, lv
}

// TestAccessTraceBehaviourNeutral: a recorded run's statistics are
// bit-identical to a run without the recorder, on both ckptMachine paths
// (the plain run is observed by a text trace on the baseline
// path and unobserved otherwise), and the trace covers exactly the run's
// dynamic instructions (recordGolden checks the count).
func TestAccessTraceBehaviourNeutral(t *testing.T) {
	for _, path := range []struct {
		name       string
		predecoded bool
	}{{"baseline", false}, {"predecoded", true}} {
		t.Run(path.name, func(t *testing.T) {
			cfg := DefaultConfig()
			_, _, recorded, _ := recordGolden(t, cfg, path.predecoded)
			plain := ckptMachine(t, cfg, path.predecoded)
			want, err := plain.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, recorded) {
				t.Fatalf("recorded run diverged from unobserved run:\nunobserved %+v\nrecorded   %+v", want, recorded)
			}
		})
	}
}

// TestLivenessDMAOffers: ckptKernel's VLOAD/VSTOREs are DMA transfers,
// so the recorded offer schedule must be non-empty, strictly ascending,
// in range, and searchable.
func TestLivenessDMAOffers(t *testing.T) {
	cfg := DefaultConfig()
	_, _, st, lv := recordGolden(t, cfg, true)
	if len(lv.dma) == 0 {
		t.Fatal("no DMA offers recorded for a kernel with VLOAD/VSTORE")
	}
	prev := int64(-1)
	for _, idx := range lv.dma {
		if idx <= prev || idx >= st.Instructions {
			t.Fatalf("bad offer index %d (prev %d, run length %d)", idx, prev, st.Instructions)
		}
		prev = idx
	}
	if got, ok := lv.DMAOfferAfter(0); !ok || got != lv.dma[0] {
		t.Fatalf("DMAOfferAfter(0) = %d, %v; want first offer %d", got, ok, lv.dma[0])
	}
	if got, ok := lv.DMAOfferAfter(lv.dma[len(lv.dma)-1]); !ok || got != lv.dma[len(lv.dma)-1] {
		t.Fatalf("DMAOfferAfter(last) = %d, %v; want the last offer itself", got, ok)
	}
	if _, ok := lv.DMAOfferAfter(st.Instructions); ok {
		t.Fatal("DMAOfferAfter past the end of the run reported an offer")
	}
}

// TestConvergedWith: a machine replaying the golden run between two of
// its checkpoints converges at the later one; a difference in a
// scratchpad word the golden run never reads again is accepted as dead;
// a difference in a word that is still read is rejected with a positive
// retry hint; and mismatched boundaries are rejected outright.
func TestConvergedWith(t *testing.T) {
	cfg := DefaultConfig()
	golden, start, st, lv := recordGolden(t, cfg, true)
	j1, j2 := st.Instructions/3, 2*st.Instructions/3
	if err := golden.Restore(start); err != nil {
		t.Fatal(err)
	}
	mustRunUntil := func(m *Machine, n int64) {
		t.Helper()
		if _, done, err := m.RunUntil(n); err != nil || done {
			t.Fatalf("RunUntil(%d): done=%v err=%v", n, done, err)
		}
	}
	mustRunUntil(golden, j1)
	ck1 := golden.Snapshot()
	mustRunUntil(golden, j2)
	ck2 := golden.Snapshot()

	m := ckptMachine(t, cfg, true)
	if err := m.Restore(ck1); err != nil {
		t.Fatal(err)
	}
	mustRunUntil(m, j2)
	if conv, retry := m.ConvergedWith(ck2, lv); !conv {
		t.Fatalf("golden replay did not converge with its own checkpoint (retry %d)", retry)
	}
	if conv, _ := m.ConvergedWith(ck1, lv); conv {
		t.Fatal("converged with a checkpoint at a different boundary")
	}

	// A flipped word the kernel never touches is dead everywhere.
	deadWord := 10000
	if lv.vspadEnd[deadWord] != 0 {
		t.Fatalf("test word %d is read by the kernel (read end %d)", deadWord, lv.vspadEnd[deadWord])
	}
	if !m.vspad.FlipBit(2*deadWord, 0) {
		t.Fatal("flip out of range")
	}
	if conv, _ := m.ConvergedWith(ck2, lv); !conv {
		t.Fatal("a dead scratchpad difference blocked convergence")
	}

	// Word 0 (vspad region A) is re-read by every remaining loop
	// iteration: a difference there is live at j2, and the retry hint
	// points past its last read.
	if int64(lv.vspadEnd[0]) <= j2 {
		t.Fatalf("kernel's region A is not read after j2 (read end %d); test premise broken", lv.vspadEnd[0])
	}
	if !m.vspad.FlipBit(0, 0) {
		t.Fatal("flip out of range")
	}
	conv, retry := m.ConvergedWith(ck2, lv)
	if conv {
		t.Fatal("a live scratchpad difference was accepted")
	}
	if retry != int64(lv.vspadEnd[0]) {
		t.Fatalf("retry hint %d, want the read end, last read + 1 = %d", retry, lv.vspadEnd[0])
	}
}

// TestConvergedWithAllocationFree pins that a convergence proof reuses
// the machine's page and word buffers: once they have grown, a proof
// allocates nothing, whether it converges or finds a live scratchpad
// difference.
func TestConvergedWithAllocationFree(t *testing.T) {
	cfg := DefaultConfig()
	golden, start, st, lv := recordGolden(t, cfg, true)
	j1, j2 := st.Instructions/3, 2*st.Instructions/3
	if err := golden.Restore(start); err != nil {
		t.Fatal(err)
	}
	if _, _, err := golden.RunUntil(j1); err != nil {
		t.Fatal(err)
	}
	ck1 := golden.Snapshot()
	if _, _, err := golden.RunUntil(j2); err != nil {
		t.Fatal(err)
	}
	ck2 := golden.Snapshot()

	m := ckptMachine(t, cfg, true)
	if err := m.Restore(ck1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.RunUntil(j2); err != nil {
		t.Fatal(err)
	}
	if conv, _ := m.ConvergedWith(ck2, lv); !conv {
		t.Fatal("golden replay did not converge")
	}
	if allocs := testing.AllocsPerRun(50, func() { m.ConvergedWith(ck2, lv) }); allocs != 0 {
		t.Fatalf("converging proof: %.1f allocs, want 0", allocs)
	}
	m.vspad.FlipBit(0, 0) // a live word: the proof lists it and fails
	if conv, retry := m.ConvergedWith(ck2, lv); conv || retry == 0 {
		t.Fatalf("live difference: converged=%v retry=%d, want a retry hint", conv, retry)
	}
	if allocs := testing.AllocsPerRun(50, func() { m.ConvergedWith(ck2, lv) }); allocs != 0 {
		t.Fatalf("failing proof: %.1f allocs, want 0", allocs)
	}
}

// laneReachKernel produces vector and matrix outputs of known lengths
// between instructions that produce none (loads, stores, moves, VDOT,
// VMAX, VMIN). Its reach, by dynamic index:
//
//	vector  8 VAV 5, 15 VAS 40 (wraps the 32 lanes), 21 VAV 5
//	matrix 14 MMV 3, 18 MMS 600, 19 OP 3x5 = 15, 20 MAM 4
const laneReachKernel = `
.data 0: 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
	SMOVE  $1, #40
	SMOVE  $2, #5
	SMOVE  $3, #0
	SMOVE  $4, #256
	VLOAD  $3, $1, #0
	VDOT   $10, $1, $3, $3
	VMAX   $11, $1, $3
	VMOVE  $4, $1, $3
	VAV    $4, $2, $3, $3
	SMOVE  $5, #3
	SMOVE  $6, #4
	SMOVE  $7, #0
	SMOVE  $8, #12
	MLOAD  $7, $8, #0
	MMV    $4, $5, $7, $3, $6
	VAS    $4, $1, $3, #1
	SMOVE  $9, #600
	SMOVE  $12, #4096
	MMS    $12, $9, $12, #2
	OP     $7, $3, $5, $3, $2
	MAM    $7, $6, $7, $7
	VAV    $4, $2, $3, $3
	VMIN   $11, $1, $4
	VSTORE $4, $1, #1024
	MSTORE $12, $9, #2048
	MMOVE  $12, $8, $7
`

// TestLivenessLaneReach pins the lane-reach schedule on laneReachKernel:
// each lane's first and last reaching output, none for a lane no output
// reaches, a lane index reduced modulo the unit's lane count, and no
// reach at all for an instruction that never calls applyStuck. Then it
// holds the schedule to the fault it serves: a stuck-lane injector on
// every lane of both units, stepped one instruction at a time, applies
// its fault first at the lane's first reach and last at its last.
func TestLivenessLaneReach(t *testing.T) {
	cfg := DefaultConfig()
	p := mustAssemble(t, laneReachKernel)
	m := mustNew(t, cfg)
	for _, c := range p.Data {
		if err := m.WriteMainNums(c.Addr, c.Values); err != nil {
			t.Fatal(err)
		}
	}
	m.LoadProgram(p.Instructions)
	start := m.Snapshot()
	rec := NewAccessTrace()
	m.SetAccessTrace(rec)
	st, err := m.Run()
	m.SetAccessTrace(nil)
	if err != nil {
		t.Fatal(err)
	}
	lv, err := rec.Liveness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vec, mat := fault.UnitVector, fault.UnitMatrix
	const none = -1
	for _, c := range []struct {
		unit        fault.Unit
		lane        int
		first, last int64
	}{
		{vec, 0, 8, 21},
		{vec, 4, 8, 21},
		{vec, 5, 15, 15},
		{vec, 31, 15, 15},
		{vec, 32 + 2, 8, 21}, // lane 2
		{vec, -1, 15, 15},    // lane 31
		{mat, 0, 14, 20},
		{mat, 2, 14, 20},
		{mat, 3, 18, 20},
		{mat, 4, 18, 19},
		{mat, 14, 18, 19},
		{mat, 15, 18, 18},
		{mat, 599, 18, 18},
		{mat, 600, none, none},
		{mat, 1023, none, none},
		{mat, 1024 + 3, 18, 20}, // lane 3
		{mat, -1, none, none},   // lane 1023
		{fault.Unit(2), 0, none, none},
	} {
		first, last, ok := lv.LaneReach(c.unit, c.lane)
		if c.first == none {
			if ok {
				t.Errorf("%v lane %d: reach [%d, %d], want none", c.unit, c.lane, first, last)
			}
			continue
		}
		if !ok || first != c.first || last != c.last {
			t.Errorf("%v lane %d: reach [%d, %d] (reached %v), want [%d, %d]", c.unit, c.lane, first, last, ok, c.first, c.last)
		}
	}

	for _, unit := range []fault.Unit{vec, mat} {
		for lane := range cfg.unitLanes(unit) {
			if err := m.Restore(start); err != nil {
				t.Fatal(err)
			}
			m.SetInjector(fault.New(fault.Fault{Model: fault.ModelStuckLane, Unit: unit, Lane: lane, Bit: 3, Val: 1}))
			first, last := int64(none), int64(none)
			for i := int64(1); i <= st.Instructions; i++ {
				before := m.stats.FaultsInjected
				if _, _, err := m.RunUntil(i); err != nil {
					t.Fatal(err)
				}
				if m.stats.FaultsInjected != before {
					if first == none {
						first = i - 1
					}
					last = i - 1
				}
			}
			m.SetInjector(nil)
			f, l, ok := lv.LaneReach(unit, lane)
			if !ok {
				f, l = none, none
			}
			if f != first || l != last {
				t.Fatalf("%v lane %d: schedule says [%d, %d], the stuck lane applied over [%d, %d]", unit, lane, f, l, first, last)
			}
		}
	}
}

// TestLivenessInert pins the rule that lets a campaign skip a transient
// site without a machine: a spad-bit or gpr-bit flip is inert exactly
// when the golden run's last read of the location comes before the
// site's index, and a fetch-bit flip exactly when the corrupted word
// decodes to the golden instruction.
func TestLivenessInert(t *testing.T) {
	cfg := DefaultConfig()
	_, _, st, lv := recordGolden(t, cfg, true)

	// ckptKernel's vector region A (word 0) and register $10 are read on
	// every loop iteration: a flip at the last read still reaches it, a
	// flip after it does not.
	spad := fault.Fault{Model: fault.ModelSpadBit, Space: fault.SpaceVector, Word: 0, Bit: 3}
	gpr := fault.Fault{Model: fault.ModelGPRBit, Reg: 10, Bit: 3}
	for _, c := range []struct {
		f    fault.Fault
		last int64
	}{{spad, int64(lv.vspadEnd[0]) - 1}, {gpr, lv.gprEnd[10] - 1}} {
		if c.last <= 0 || c.last >= st.Instructions {
			t.Fatalf("%v: last read %d, not inside the %d-instruction run", c.f, c.last, st.Instructions)
		}
		for at, want := range map[int64]bool{c.last - 1: false, c.last: false, c.last + 1: true} {
			c.f.At = at
			if got := lv.Inert(c.f); got != want {
				t.Errorf("%v (last read #%d): inert %v, want %v", c.f, c.last, got, want)
			}
		}
	}
	// The matrix pad is never read; a word past its end is not a flip.
	never := fault.Fault{Model: fault.ModelSpadBit, Space: fault.SpaceMatrix, Word: 5}
	if !lv.Inert(never) {
		t.Error("a flip of a matrix word the run never reads is not inert")
	}
	never.Word = cfg.MatrixSpadBytes / 2
	if lv.Inert(never) {
		t.Error("a flip past the end of the matrix pad is inert")
	}

	// Instruction 0 is SMOVE $1, #32: bit 40 lies in a register field
	// the format does not use, bit 0 in the immediate, and bit 63 makes
	// the opcode invalid.
	w := lv.words[0]
	golden, err := core.Decode(w)
	if err != nil || golden.Op != core.SMOVE {
		t.Fatalf("instruction 0 decodes to %v, %v; want the kernel's SMOVE", golden, err)
	}
	for bit, want := range map[uint8]bool{40: true, 0: false, 63: false} {
		inst, err := core.Decode(w ^ 1<<bit)
		if (err == nil && inst == golden) != want {
			t.Fatalf("bit %d: decodes to %v, %v; the kernel no longer tests inert %v", bit, inst, err, want)
		}
		if bit == 63 && err == nil {
			t.Fatalf("bit 63 decodes to %v; want an invalid opcode", inst)
		}
		f := fault.Fault{Model: fault.ModelFetchBit, At: 0, Bit: bit}
		if got := lv.Inert(f); got != want {
			t.Errorf("%v: inert %v, want %v", f, got, want)
		}
	}
	if lv.Inert(fault.Fault{Model: fault.ModelFetchBit, At: st.Instructions, Bit: 40}) {
		t.Error("a fetch past the end of the run is inert")
	}
	for _, f := range []fault.Fault{{Model: fault.ModelDMABit}, {Model: fault.ModelStuckLane}} {
		if lv.Inert(f) {
			t.Errorf("%v is inert; only the three point models can be", f)
		}
	}
}

package sim

// Tests for the golden-run access trace and the convergence proof
// (liveness.go): recording must be behaviour-neutral, the condensed
// liveness must know the golden DMA offers, and ConvergedWith must
// accept exactly the states whose remaining differences are dead.

import (
	"reflect"
	"testing"
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
	if lv.vspadLast[deadWord] != -1 {
		t.Fatalf("test word %d is read by the kernel (last read %d)", deadWord, lv.vspadLast[deadWord])
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
	if lv.vspadLast[0] < j2 {
		t.Fatalf("kernel's region A is not read after j2 (last read %d); test premise broken", lv.vspadLast[0])
	}
	if !m.vspad.FlipBit(0, 0) {
		t.Fatal("flip out of range")
	}
	conv, retry := m.ConvergedWith(ck2, lv)
	if conv {
		t.Fatal("a live scratchpad difference was accepted")
	}
	if retry != lv.vspadLast[0]+1 {
		t.Fatalf("retry hint %d, want last read + 1 = %d", retry, lv.vspadLast[0]+1)
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

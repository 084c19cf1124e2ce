package sim_test

import (
	"testing"

	"cambricon/internal/bench"
	"cambricon/internal/sim"
)

// TestCheckpointPageDiffsWithinRecordedWrites pins the soundness of the
// page bound behind every convergence proof, on all ten Table III
// programs at seed 7: with the golden run checkpointed 8 times the way
// the fault targets do it (same machine, same spacing), every page whose
// bytes differ between two checkpoints i < j — the run-start snapshot
// included — in any of the three memories is inside the bound a machine
// restored at i compares against j. A machine that has run nothing since
// the restore has no dirty pages, so the bound is exactly the pages the
// recorded golden writes in [i, j) cover. Each checkpoint, captured
// relative to the one before it, must also equal a full capture of the
// machine's memories page for page.
func TestCheckpointPageDiffsWithinRecordedWrites(t *testing.T) {
	s := bench.NewSuite(7)
	progs, err := s.Programs()
	if err != nil {
		t.Fatal(err)
	}
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe // the fault targets' derived seed
	const k = 8
	var differing [len(sim.MemoryNames)]int
	for _, p := range progs {
		m, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Init(m); err != nil {
			t.Fatal(err)
		}
		m.LoadProgram(p.Asm.Instructions)
		start := m.Snapshot()
		rec := sim.NewAccessTrace()
		m.SetAccessTrace(rec)
		st, err := m.Run()
		m.SetAccessTrace(nil)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		lv, err := rec.Liveness(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Restore(start); err != nil {
			t.Fatal(err)
		}
		ckpts := []*sim.Snapshot{start}
		for i := int64(1); i <= k; i++ {
			at := st.Instructions * i / (k + 1)
			if at <= ckpts[len(ckpts)-1].Instructions() {
				continue
			}
			if _, done, err := m.RunUntil(at); err != nil || done {
				t.Fatalf("%s: RunUntil(%d): done=%v err=%v", p.Name, at, done, err)
			}
			c := m.Snapshot()
			for sp, name := range sim.MemoryNames {
				if pages := m.CaptureDiffPages(c, sp); pages != nil {
					t.Errorf("%s: checkpoint at %d: %s pages %v differ from a full capture", p.Name, at, name, pages)
				}
			}
			ckpts = append(ckpts, c)
		}
		for i, a := range ckpts {
			for _, b := range ckpts[i+1:] {
				if err := m.Restore(a); err != nil {
					t.Fatal(err)
				}
				for sp, name := range sim.MemoryNames {
					bound, ok := m.PageBound(sp, lv, b.Instructions())
					if !ok {
						t.Fatalf("%s: no page bound after a restore", p.Name)
					}
					in := map[int]bool{}
					for _, pg := range bound {
						in[pg] = true
					}
					for _, pg := range sim.DiffPages(a, b, sp) {
						differing[sp]++
						if !in[pg] {
							t.Errorf("%s: %s page %d differs between instructions %d and %d but is outside the bound %v",
								p.Name, name, pg, a.Instructions(), b.Instructions(), bound)
						}
					}
				}
			}
		}
	}
	for sp, name := range sim.MemoryNames {
		if differing[sp] == 0 {
			t.Errorf("no %s page differs between any two checkpoints; the test checks nothing there", name)
		}
	}
	t.Logf("differing pages checked (main, vector-spad, matrix-spad): %v", differing)
}

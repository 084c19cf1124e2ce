package sim

import (
	"fmt"

	"cambricon/internal/core"
	"cambricon/internal/mem"
)

// Snapshot is a captured machine state: registers, PC, PRNG, the loaded
// program and memory images. Capturing one right after Program.Init
// turns every later run of the same prepared workload into a Restore —
// a handful of dirty-page copies — instead of a 16 MiB machine rebuild
// plus image replay. Main memory is held page-sparse (only nonzero 4 KiB
// pages are resident; benchmarks touch well under 1 MiB of the 16 MiB
// space), so a suite holding all ten prepared benchmarks keeps ~20x less
// memory than with dense images. A Snapshot is immutable once captured
// and may be shared by any number of machines (and goroutines)
// concurrently.
type Snapshot struct {
	cfg Config
	gpr [core.NumGPRs]uint32
	pc  int
	rng uint64
	dec *DecodedProgram

	vspad, mspad []byte
	main         *mem.SparseImage

	// stats/pipe are set only for mid-run captures (Checkpoint): the
	// accumulated statistics and pipeline timing state at the capture
	// boundary. Restore reinstates them instead of resetting, so resuming
	// is bit-identical to never having stopped. Run-boundary snapshots
	// (Snapshot) leave them nil and restore to reset state as before.
	stats *Stats
	pipe  *pipeState
}

// Config returns the configuration the snapshot was captured under.
func (s *Snapshot) Config() Config { return s.cfg }

// MidRun reports whether the snapshot was captured mid-run (by
// Checkpoint) rather than at a run boundary (by Snapshot).
func (s *Snapshot) MidRun() bool { return s.stats != nil }

// Instructions returns the dynamic instruction index the snapshot was
// captured at (0 for run-boundary snapshots).
func (s *Snapshot) Instructions() int64 {
	if s.stats == nil {
		return 0
	}
	return s.stats.Instructions
}

// Stats returns a copy of the statistics captured with a mid-run
// snapshot (the zero Stats for run-boundary snapshots).
func (s *Snapshot) Stats() Stats {
	if s.stats == nil {
		return Stats{}
	}
	return *s.stats
}

// Bytes returns the resident size of the captured memory images: the
// dense scratchpad copies plus only the nonzero pages of main memory.
func (s *Snapshot) Bytes() int { return len(s.vspad) + len(s.mspad) + s.main.Bytes() }

// DenseBytes returns what the same capture would occupy with a dense
// main-memory image — the denominator of the sparse-snapshot saving.
func (s *Snapshot) DenseBytes() int { return len(s.vspad) + len(s.mspad) + s.main.Size() }

// archEqual reports whether two configurations describe the same
// architectural state shapes, ignoring the watchdog budget: MaxCycles
// bounds a run's length but not the machine's state, so a pooled machine
// may be restored across runs with different budgets.
func archEqual(a, b Config) bool {
	a.MaxCycles, b.MaxCycles = 0, 0
	return a == b
}

// Snapshot captures the machine's current architectural state and arms
// dirty tracking on its memories, so a later Restore to this snapshot
// copies only regions written in between. Timing state (stats, pipeline
// rings) is not captured: Restore resets it exactly like a fresh machine,
// and the attached tracer/injector are left untouched.
func (m *Machine) Snapshot() *Snapshot {
	return m.capture(false)
}

// Checkpoint captures the machine mid-run, at its current dynamic
// instruction boundary: everything Snapshot captures plus the
// accumulated statistics (including the CPI-stack stall counters) and
// the full pipeline timing state (stage clocks, in-flight memory-queue
// entries, functional-unit availability). Restoring the checkpoint —
// onto this machine or any machine with an archEqual configuration —
// and resuming (Resume, RunUntil) produces statistics, cycles, traces
// and fault behaviour bit-identical to the uninterrupted run. Like
// Snapshot, the call arms dirty tracking so a later Restore to this
// checkpoint copies only memory written in between.
func (m *Machine) Checkpoint() *Snapshot {
	return m.capture(true)
}

func (m *Machine) capture(midRun bool) *Snapshot {
	s := &Snapshot{
		cfg:   m.cfg,
		gpr:   m.gpr,
		pc:    m.pc,
		rng:   m.rng,
		dec:   m.dec,
		vspad: m.vspad.Image(),
		mspad: m.mspad.Image(),
		main:  m.main.SparseImage(),
	}
	if midRun {
		st := m.stats
		s.stats = &st
		s.pipe = m.pipe.capture()
	}
	m.vspad.BeginDirtyTracking()
	m.mspad.BeginDirtyTracking()
	m.main.BeginDirtyTracking()
	m.lastSnap = s
	return s
}

// PristineSnapshot synthesizes the snapshot of a freshly constructed
// machine for cfg — zero registers, PC 0, seeded PRNG, no program, all
// memory zero — without building one. Restoring it onto any archEqual
// machine resets it to post-construction state; the bench pool uses this
// to recycle machines across configurations (and, with the sparse
// all-zero main image, the restore touches only pages that were dirtied).
func PristineSnapshot(cfg Config) (*Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.Seed
	if rng == 0 {
		rng = 1
	}
	return &Snapshot{
		cfg:   cfg,
		rng:   rng,
		vspad: make([]byte, cfg.VectorSpadBytes),
		mspad: make([]byte, cfg.MatrixSpadBytes),
		main:  mem.ZeroSparseImage(cfg.MainMemBytes),
	}, nil
}

// Restore reinstates a snapshot by copying into the machine's existing
// buffers: registers, PC and PRNG come back exactly, statistics and
// pipeline state reset as in a fresh machine (run-boundary snapshots) or
// come back exactly as captured (mid-run checkpoints, see Checkpoint),
// and the snapshot's program is (re)loaded. When the machine's last
// Snapshot/Restore used the same snapshot, only memory dirtied since is
// copied back; when it used a different known snapshot with tracking
// still live, the switch costs only the pages resident in either image
// plus the dirtied ones; otherwise the full images are rebuilt and dirty
// tracking starts. Either way the machine afterwards produces
// bit-identical runs to a freshly constructed machine that replayed the
// same history.
//
// The machine's own watchdog budget (Config.MaxCycles) is preserved; any
// other configuration difference is an error.
func (m *Machine) Restore(s *Snapshot) error {
	if !archEqual(m.cfg, s.cfg) {
		return fmt.Errorf("sim: restore: machine config %+v does not match snapshot config %+v", m.cfg, s.cfg)
	}
	if m.lastSnap != s {
		if m.lastSnap != nil && m.main.Tracking() && m.vspad.Tracking() && m.mspad.Tracking() {
			// Delta switch: the machine's contents are provably "lastSnap +
			// dirty", so every page that can differ from s is either dirty
			// or resident in one of the two images. Marking those as dirty
			// lets the tracked restore below rebuild only them instead of
			// walking the whole 16 MiB space. (Scratchpads track a single
			// whole-pad flag, so their switch is a full — but small — copy.)
			m.main.MarkPagesDirty(m.lastSnap.main)
			m.main.MarkPagesDirty(s.main)
			m.vspad.MarkDirty()
			m.mspad.MarkDirty()
		} else {
			// The machine's dirty state is relative to no known image:
			// invalidate tracking so the restores below copy in full.
			m.vspad.DropDirtyTracking()
			m.mspad.DropDirtyTracking()
			m.main.DropDirtyTracking()
		}
		m.lastSnap = s
	}
	copied := 0
	n, err := m.vspad.RestoreFrom(s.vspad)
	if err != nil {
		return err
	}
	copied += n
	if n, err = m.mspad.RestoreFrom(s.mspad); err != nil {
		return err
	}
	copied += n
	if n, err = m.main.RestoreFromSparse(s.main); err != nil {
		return err
	}
	copied += n
	m.lastRestoreBytes = copied
	m.gpr = s.gpr
	m.pc = s.pc
	m.rng = s.rng
	m.dec = s.dec
	if s.stats != nil {
		// Mid-run snapshot: resume where the capture stopped — statistics
		// and pipeline timing state come back exactly, so the remainder of
		// the run is bit-identical to never having stopped.
		m.stats = *s.stats
		m.pipe.restoreState(s.pipe, &m.cfg, &m.stats)
	} else {
		m.stats = Stats{}
		m.pipe.init(&m.cfg, &m.stats)
	}
	return nil
}

// LastRestoreBytes reports how many bytes the most recent Restore wrote
// into the machine's memories — the dirty-page copy volume the
// service-metrics layer aggregates.
func (m *Machine) LastRestoreBytes() int { return m.lastRestoreBytes }

// SetMaxCycles adjusts the watchdog budget between runs (negative values
// disable it, like Config.MaxCycles = 0). Pooled machines use this to
// carry per-run budgets across Restores without breaking the snapshot's
// configuration match.
func (m *Machine) SetMaxCycles(v int64) {
	if v < 0 {
		v = 0
	}
	m.cfg.MaxCycles = v
}

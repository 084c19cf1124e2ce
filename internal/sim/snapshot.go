package sim

import (
	"fmt"

	"cambricon/internal/core"
	"cambricon/internal/mem"
)

// Snapshot is a captured machine state at a dynamic instruction
// boundary: registers, PC, PRNG, the loaded program, memory images,
// statistics and pipeline timing state. Capturing one right after
// Program.Init turns every later run of the same prepared workload into
// a Restore — a handful of dirty-page copies — instead of a 16 MiB
// machine rebuild plus image replay; capturing one mid-run lets the run
// resume elsewhere. All three memories are held page-sparse (only
// nonzero 4 KiB pages are resident; benchmarks touch well under 1 MiB of
// the 16 MiB main memory and a few pages of each scratchpad), so a suite
// holding all ten prepared benchmarks keeps a small fraction of the
// memory dense images would take. A Snapshot is immutable once captured
// and may be shared by any number of machines (and goroutines)
// concurrently.
type Snapshot struct {
	cfg Config
	gpr [core.NumGPRs]uint32
	pc  int
	rng uint64
	dec *DecodedProgram

	// img holds the three memory images, indexed by space: main memory
	// and both scratchpads, each page-sparse.
	img [3]*mem.SparseImage

	// stats and pipe are the accumulated statistics and the pipeline
	// timing state at the capture boundary. Restore reinstates them, so
	// resuming is bit-identical to never having stopped.
	stats Stats
	pipe  pipeState
}

// Instructions returns the dynamic instruction index the snapshot was
// captured at.
func (s *Snapshot) Instructions() int64 { return s.stats.Instructions }

// Stats returns the statistics accumulated up to the capture.
func (s *Snapshot) Stats() Stats { return s.stats }

// Bytes returns the resident size of the captured memory images: only
// the nonzero pages of main memory and of both scratchpads.
func (s *Snapshot) Bytes() int {
	n := 0
	for _, img := range s.img {
		n += img.Bytes()
	}
	return n
}

// pagedMem is the page-tracked storage the machine's three memories
// share (internal/mem): snapshots, restores and convergence proofs treat
// main memory and both scratchpads alike through it.
type pagedMem interface {
	SparseImage() *mem.SparseImage
	BeginDirtyTracking()
	DropDirtyTracking()
	Tracking() bool
	MarkPagesDirty(img *mem.SparseImage)
	RestoreFromSparse(img *mem.SparseImage) (int, error)
	AppendDirtyPages(buf []int) ([]int, bool)
	AppendPageDiffWords(buf []int, img *mem.SparseImage, p, limit int) ([]int, bool)
}

// memories returns the machine's three memories, indexed by space like
// Snapshot.img.
func (m *Machine) memories() [3]pagedMem {
	return [3]pagedMem{spaceMain: m.main, spaceVec: m.vspad, spaceMat: m.mspad}
}

// memBytes returns the capacity of memory sp under the configuration.
func (c *Config) memBytes(sp space) int {
	return [3]int{spaceMain: c.MainMemBytes, spaceVec: c.VectorSpadBytes, spaceMat: c.MatrixSpadBytes}[sp]
}

// archEqual reports whether two configurations describe the same
// architectural state shapes, ignoring the watchdog budget: MaxCycles
// bounds a run's length but not the machine's state, so a pooled machine
// may be restored across runs with different budgets.
func archEqual(a, b Config) bool {
	a.MaxCycles, b.MaxCycles = 0, 0
	return a == b
}

// Snapshot captures the machine at its current dynamic instruction
// boundary: registers, PC, PRNG, the loaded program, the memory images,
// the accumulated statistics (including the CPI-stack stall counters)
// and the full pipeline timing state (stage clocks, in-flight
// memory-queue entries, functional-unit availability). Restoring it —
// onto this machine or any machine with an archEqual configuration —
// and resuming (Resume, RunUntil) produces statistics, cycles, traces
// and fault behaviour bit-identical to the uninterrupted run; a
// snapshot taken before a run, such as right after Program.Init, holds
// the reset timing state, so a Run after restoring it matches a fresh
// machine's. The call arms dirty tracking on the memories, so a later
// Restore to this snapshot copies only memory written in between; the
// attached tracer and injector are left untouched.
func (m *Machine) Snapshot() *Snapshot {
	s := &Snapshot{
		cfg:   m.cfg,
		gpr:   m.gpr,
		pc:    m.pc,
		rng:   m.rng,
		dec:   m.dec,
		stats: m.stats,
		pipe:  m.pipe.capture(),
	}
	for sp, mm := range m.memories() {
		s.img[sp] = mm.SparseImage()
		mm.BeginDirtyTracking()
	}
	m.lastSnap = s
	return s
}

// PristineSnapshot synthesizes the snapshot of a freshly constructed
// machine for cfg — zero registers, PC 0, seeded PRNG, no program, all
// memory zero, zero statistics and the reset pipeline — without building
// one. Restoring it onto any archEqual machine resets it to
// post-construction state; the bench pool uses this to recycle machines
// across configurations (and, with all-zero sparse images, the restore
// touches only pages that were dirtied).
func PristineSnapshot(cfg Config) (*Snapshot, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := cfg.Seed
	if rng == 0 {
		rng = 1
	}
	s := &Snapshot{cfg: cfg, rng: rng}
	s.pipe.reset(&cfg)
	for sp := range s.img {
		s.img[sp] = mem.ZeroSparseImage(cfg.memBytes(space(sp)))
	}
	return s, nil
}

// Restore reinstates a snapshot by copying into the machine's existing
// buffers: registers, PC, PRNG, statistics and pipeline timing state
// come back exactly as captured, and the snapshot's program is
// (re)loaded. When the machine's last
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
	mems := m.memories()
	if m.lastSnap != s {
		tracked := m.lastSnap != nil
		for _, mm := range mems {
			tracked = tracked && mm.Tracking()
		}
		for sp, mm := range mems {
			if tracked {
				// Delta switch: the memory's contents are provably
				// "lastSnap + dirty", so every page that can differ from s
				// is either dirty or resident in one of the two images.
				// Marking those as dirty lets the tracked restore below
				// rebuild only them instead of the whole memory.
				mm.MarkPagesDirty(m.lastSnap.img[sp])
				mm.MarkPagesDirty(s.img[sp])
			} else {
				// The contents are relative to no known image: invalidate
				// tracking so the restore below rebuilds in full.
				mm.DropDirtyTracking()
			}
		}
		m.lastSnap = s
	}
	copied := 0
	for sp, mm := range mems {
		n, err := mm.RestoreFromSparse(s.img[sp])
		if err != nil {
			return err
		}
		copied += n
	}
	m.lastRestoreBytes = copied
	m.gpr = s.gpr
	m.pc = s.pc
	m.rng = s.rng
	m.dec = s.dec
	m.stats = s.stats
	m.pipe.restore(&s.pipe)
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

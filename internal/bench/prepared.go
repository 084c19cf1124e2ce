package bench

// This file is the warm-start layer (docs/PERF.md, "Level 3"): campaign
// and experiment paths that used to construct a fresh 16 MiB sim.Machine
// and replay a workload image per run instead draw a pooled machine and
// Restore a captured post-Init snapshot — a handful of dirty-page copies.
// Simulated statistics are bit-identical either way; a cold suite (set
// only by the host benchmark and tests) keeps the historical behaviour
// as the oracle.

import (
	"context"
	"sync"

	"cambricon/internal/reqtrace"
	"cambricon/internal/sim"
)

// defaultPoolMaxIdle bounds each entry's free list: a release beyond it
// drops the machine for the garbage collector instead of growing the
// pool. 64 comfortably covers the campaign worker counts the suite runs
// at while capping idle retention at 64 machines per configuration.
const defaultPoolMaxIdle = 64

// machinePool caches sim.Machine instances per architectural
// configuration (the pool key normalizes the watchdog budget away, see
// sim.Machine.SetMaxCycles). Machines are handed out bare; callers
// restore them to a snapshot before use. Configurations that differ only
// in non-memory parameters (issue width, lane counts, timing knobs —
// the ablation and sweep axes) share machines across entries: a pool
// miss steals an idle machine from any entry with the same memory
// geometry and Reconfigures it, reusing its 16 MiB main-memory
// allocation instead of building a fresh one.
//
// Retention is an explicit bounded free list per entry (LIFO, capacity
// defaultPoolMaxIdle, preallocated so acquire and release never
// allocate) rather than a sync.Pool, which sheds idle entries at GC: a
// released machine stays until it is reused, so reuse is deterministic
// (testable under -race without GC pinning). The pool never builds
// ahead of demand: acquire builds only when no machine of cfg's memory
// geometry is idle. It therefore holds at most as many machines per
// geometry as it ever had concurrent holders — under camserve, the
// admission run slots. The zero value is ready.
type machinePool struct {
	mu      sync.Mutex
	entries map[sim.Config]*poolEntry
	byMem   map[memKey][]*poolEntry
}

type poolEntry struct {
	// free is the bounded LIFO free list, guarded by machinePool.mu. Its
	// capacity is fixed at construction; append never reallocates.
	free []*sim.Machine
	// pristine is the post-construction zero state of this configuration,
	// synthesized from the configuration alone (sim.PristineSnapshot):
	// handcrafted kernels (ablations, sweeps) restore to it so a recycled
	// — or cross-configuration stolen — machine is indistinguishable from
	// a fresh one.
	pristine *sim.Snapshot
}

// pop removes and returns the most recently released idle machine, nil
// when the free list is empty. Caller holds machinePool.mu.
func (e *poolEntry) pop() *sim.Machine {
	n := len(e.free)
	if n == 0 {
		return nil
	}
	m := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return m
}

// poolKey normalizes a configuration to its architectural identity.
func poolKey(cfg sim.Config) sim.Config {
	cfg.MaxCycles = 0
	return cfg
}

// memKey is a configuration's memory geometry — the sharing domain for
// cross-configuration machine steals (sim.Machine.Reconfigure accepts
// exactly the configurations whose memKey matches).
type memKey struct {
	main, vspad, mspad, banks, bankBytes int
}

func memKeyOf(cfg sim.Config) memKey {
	return memKey{
		main:      cfg.MainMemBytes,
		vspad:     cfg.VectorSpadBytes,
		mspad:     cfg.MatrixSpadBytes,
		banks:     cfg.SpadBanks,
		bankBytes: cfg.BankBytes,
	}
}

func (p *machinePool) entry(cfg sim.Config) (*poolEntry, error) {
	key := poolKey(cfg)
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries == nil {
		p.entries = map[sim.Config]*poolEntry{}
		p.byMem = map[memKey][]*poolEntry{}
	}
	e := p.entries[key]
	if e == nil {
		pristine, err := sim.PristineSnapshot(key)
		if err != nil {
			return nil, err
		}
		e = &poolEntry{
			free:     make([]*sim.Machine, 0, defaultPoolMaxIdle),
			pristine: pristine,
		}
		p.entries[key] = e
		mk := memKeyOf(key)
		p.byMem[mk] = append(p.byMem[mk], e)
	}
	return e, nil
}

// acquire returns a machine for cfg with its watchdog budget set to
// cfg.MaxCycles: recycled from cfg's own entry when possible, stolen and
// reconfigured from a same-memory-geometry entry otherwise (both
// reused=true), freshly built as the last resort. The machine's other
// state is whatever the previous user left; callers must Restore a
// snapshot (or load a program onto a pristine machine) before running.
func (p *machinePool) acquire(cfg sim.Config) (m *sim.Machine, reused bool, err error) {
	e, err := p.entry(cfg)
	if err != nil {
		return nil, false, err
	}
	p.mu.Lock()
	if m := e.pop(); m != nil {
		p.mu.Unlock()
		m.SetMaxCycles(cfg.MaxCycles)
		return m, true, nil
	}
	// Own entry is empty: steal from any sibling sharing cfg's memory
	// geometry under the same critical section.
	var stolen *sim.Machine
	for _, sib := range p.byMem[memKeyOf(cfg)] {
		if sib == e {
			continue
		}
		if stolen = sib.pop(); stolen != nil {
			break
		}
	}
	p.mu.Unlock()
	if stolen != nil {
		if err := stolen.Reconfigure(cfg); err == nil {
			return stolen, true, nil
		}
		// A same-memKey reconfigure can only fail on an invalid cfg,
		// which sim.New below will report; drop the stolen machine.
	}
	m, err = sim.New(cfg)
	return m, false, err
}

// acquirePristine is acquire plus a restore to the configuration's
// post-construction zero state: registers, PRNG and all memory exactly as
// sim.New left them.
func (p *machinePool) acquirePristine(cfg sim.Config) (*sim.Machine, bool, error) {
	m, reused, err := p.acquire(cfg)
	if err != nil {
		return nil, false, err
	}
	e, err := p.entry(cfg)
	if err != nil {
		return nil, false, err
	}
	if err := m.Restore(e.pristine); err != nil {
		return nil, false, err
	}
	return m, reused, nil
}

// release detaches the machine's tracer and injector and returns it to
// its entry's free list; a full list (or an entry the pool never built,
// which cannot happen through acquire) drops the machine instead. The
// free list is preallocated, so the append never allocates and the warm
// request path stays 0-alloc.
func (p *machinePool) release(m *sim.Machine) {
	m.SetTracer(nil)
	m.SetInjector(nil)
	key := poolKey(m.Config())
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.entries[key]; e != nil && len(e.free) < cap(e.free) {
		e.free = append(e.free, m)
	}
}

// preparedSnapshot builds (once per benchmark) the snapshot of a machine
// that has the program's memory image written and its instruction stream
// loaded — the state every run of that benchmark starts from. The
// requester that pays for the build gets a "snapshot.prepare" span; the
// singleflight winners that merely wait record nothing.
func (s *Suite) preparedSnapshot(ctx context.Context, b *benchmark) (*sim.Snapshot, error) {
	b.snapOnce.Do(func() {
		rec := reqtrace.From(ctx)
		sp := rec.Start(reqtrace.Root, "snapshot.prepare")
		defer rec.End(sp)
		m, reused, err := s.pool.acquirePristine(s.runConfig(0))
		if err != nil {
			b.snapErr = err
			return
		}
		s.sm().poolAcquired(reused)
		if err := b.prog.Init(m); err != nil {
			b.snapErr = err
			return
		}
		m.LoadDecoded(b.dp)
		b.snap = m.Snapshot()
		s.sm().snapshotPrepared(b.snap)
		rec.AnnotateInt(sp, "resident_bytes", int64(b.snap.Bytes()))
		s.pool.release(m)
	})
	return b.snap, b.snapErr
}

// preparedMachine returns a machine holding b's post-Init state, with
// the run configuration (runConfig) and watchdog budget maxCycles. Warm
// suites restore a pooled machine from the benchmark's snapshot and
// report pooled=true — the caller must hand it back via releaseMachine
// when done with the run. Cold suites build a fresh machine and replay
// the image, the historical behaviour, with pooled=false.
// Both produce bit-identical run statistics. (The pooled flag, rather
// than a release closure, keeps the per-run hot path allocation-free.)
// A request recorder on ctx gets per-phase spans: machine.build /
// program.init on the cold path, pool.acquire / snapshot.restore on the
// warm path (docs/OBSERVABILITY.md, "Request tracing").
func (s *Suite) preparedMachine(ctx context.Context, b *benchmark, maxCycles int64) (m *sim.Machine, pooled bool, err error) {
	if s.cold {
		rec := reqtrace.From(ctx)
		sp := rec.Start(reqtrace.Root, "machine.build")
		m, err := sim.New(s.runConfig(maxCycles))
		rec.End(sp)
		if err != nil {
			return nil, false, err
		}
		sp = rec.Start(reqtrace.Root, "program.init")
		err = b.prog.Init(m)
		rec.End(sp)
		if err != nil {
			return nil, false, err
		}
		m.LoadDecoded(b.dp)
		return m, false, nil
	}
	snap, err := s.preparedSnapshot(ctx, b)
	if err != nil {
		return nil, false, err
	}
	m, err = s.restoredMachine(ctx, snap, maxCycles)
	return m, err == nil, err
}

// restoredMachine acquires a pooled machine with the run configuration
// and watchdog budget maxCycles and restores it to snap: a benchmark's
// prepared snapshot (preparedMachine), or a mid-run checkpoint that a
// fast-forwarding fault site restores directly, so consecutive sites
// sharing a checkpoint take the cheap dirty-page-only restore path.
// Warm suites only; release via releaseMachine with pooled=true. A
// request recorder on ctx gets the pool.acquire and snapshot.restore
// spans.
func (s *Suite) restoredMachine(ctx context.Context, snap *sim.Snapshot, maxCycles int64) (*sim.Machine, error) {
	sm := s.sm()
	rec := reqtrace.From(ctx)
	sp := rec.Start(reqtrace.Root, "pool.acquire")
	m, reused, err := s.pool.acquire(s.runConfig(maxCycles))
	rec.AnnotateBool(sp, "reused", reused)
	rec.End(sp)
	if err != nil {
		return nil, err
	}
	sm.poolAcquired(reused)
	sp = rec.Start(reqtrace.Root, "snapshot.restore")
	if cerr := s.Chaos.SnapshotRestore(); cerr != nil {
		// An injected restore failure must not poison the pool: the
		// machine was never restored, and every pool user restores
		// before running, so re-pooling it as-is is safe.
		rec.End(sp)
		s.pool.release(m)
		return nil, cerr
	}
	if err := m.Restore(snap); err != nil {
		// A restore mismatch means the machine does not belong to this
		// snapshot's configuration; drop it rather than re-pooling.
		rec.End(sp)
		return nil, err
	}
	rec.AnnotateInt(sp, "bytes", int64(m.LastRestoreBytes()))
	rec.End(sp)
	sm.restored(m.LastRestoreBytes())
	return m, nil
}

// kernelMachine returns a machine in post-construction zero state for a
// handcrafted kernel (ablations, sweeps, extension programs). Warm
// suites recycle pooled machines through a pristine-state restore
// (pooled=true, release via releaseMachine); cold suites build fresh
// ones.
func (s *Suite) kernelMachine(cfg sim.Config) (*sim.Machine, bool, error) {
	if s.cold {
		m, err := sim.New(cfg)
		return m, false, err
	}
	m, reused, err := s.pool.acquirePristine(cfg)
	if err != nil {
		return nil, false, err
	}
	s.sm().poolAcquired(reused)
	return m, true, nil
}

// releaseMachine returns a pooled machine (pooled=true from
// preparedMachine/kernelMachine) to the pool; cold machines are left for
// the garbage collector.
func (s *Suite) releaseMachine(m *sim.Machine, pooled bool) {
	if pooled && m != nil {
		s.pool.release(m)
	}
}

// runConfig is the configuration of every benchmark run — Stats,
// RunOnce, Profile, fault targets and their snapshots: the suite's
// architectural config with the run seed derived from the suite seed
// and the watchdog budget maxCycles (0 = none).
func (s *Suite) runConfig(maxCycles int64) sim.Config {
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe
	cfg.MaxCycles = maxCycles
	return cfg
}

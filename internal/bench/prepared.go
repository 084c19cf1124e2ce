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
	"sync/atomic"

	"cambricon/internal/codegen"
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
	mu        sync.Mutex
	entries   map[sim.Config]*poolEntry
	byMem     map[memKey][]*poolEntry
	builds    atomic.Int64
	reuses    atomic.Int64
	memShared atomic.Int64
	drops     atomic.Int64
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
// cfg.MaxCycles: recycled from cfg's own entry when possible
// (reused=true), stolen and reconfigured from a same-memory-geometry
// entry otherwise (reused and shared=true), freshly built as the last
// resort. The machine's other state is whatever the previous user left;
// callers must Restore a snapshot (or load a program onto a pristine
// machine) before running.
func (p *machinePool) acquire(cfg sim.Config) (m *sim.Machine, reused, shared bool, err error) {
	e, err := p.entry(cfg)
	if err != nil {
		return nil, false, false, err
	}
	p.mu.Lock()
	if m := e.pop(); m != nil {
		p.mu.Unlock()
		p.reuses.Add(1)
		m.SetMaxCycles(cfg.MaxCycles)
		return m, true, false, nil
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
			p.reuses.Add(1)
			p.memShared.Add(1)
			return stolen, true, true, nil
		}
		// A same-memKey reconfigure can only fail on an invalid cfg,
		// which sim.New below will report; drop the stolen machine.
	}
	m, err = sim.New(cfg)
	if err != nil {
		return nil, false, false, err
	}
	p.builds.Add(1)
	return m, false, false, nil
}

// acquirePristine is acquire plus a restore to the configuration's
// post-construction zero state: registers, PRNG and all memory exactly as
// sim.New left them.
func (p *machinePool) acquirePristine(cfg sim.Config) (*sim.Machine, bool, bool, error) {
	m, reused, shared, err := p.acquire(cfg)
	if err != nil {
		return nil, false, false, err
	}
	e, err := p.entry(cfg)
	if err != nil {
		return nil, false, false, err
	}
	if err := m.Restore(e.pristine); err != nil {
		return nil, false, false, err
	}
	return m, reused, shared, nil
}

// release detaches the machine's observers and returns it to its
// entry's free list; a full list (or an entry the pool never built,
// which cannot happen through acquire) drops the machine instead. The
// free list is preallocated, so the append never allocates and the warm
// request path stays 0-alloc.
func (p *machinePool) release(m *sim.Machine) {
	m.SetTracer(nil)
	m.SetInjector(nil)
	m.SetTrace(nil)
	m.SetMetrics(nil)
	key := poolKey(m.Config())
	p.mu.Lock()
	e := p.entries[key]
	if e != nil && len(e.free) < cap(e.free) {
		e.free = append(e.free, m)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	p.drops.Add(1)
}

// preparedEntry is the singleflight cell for one benchmark's post-Init
// snapshot.
type preparedEntry struct {
	once sync.Once
	snap *sim.Snapshot
	err  error
}

// decodedEntry is the singleflight cell for one benchmark's pre-decoded
// program (docs/PERF.md, Level 4).
type decodedEntry struct {
	once sync.Once
	dp   *sim.DecodedProgram
	err  error
}

// decodedProgram pre-decodes (once per benchmark) the program's
// instruction stream: operand roles, encoded words and the fusion plan
// are computed here and shared — via the prepared snapshot — by every
// pooled machine and fault-campaign worker that runs the benchmark. A
// request recorder on ctx gets a "decode.lookup" span with the cache
// outcome.
func (s *Suite) decodedProgram(ctx context.Context, prog *codegen.Program) (*sim.DecodedProgram, error) {
	rec := reqtrace.From(ctx)
	sp := rec.Start(reqtrace.Root, "decode.lookup")
	defer rec.End(sp)
	s.decMu.Lock()
	if s.decoded == nil {
		s.decoded = map[string]*decodedEntry{}
	}
	de, hit := s.decoded[prog.Name]
	if de == nil {
		de = &decodedEntry{}
		s.decoded[prog.Name] = de
	}
	s.decMu.Unlock()
	if hit {
		// Served from (or blocked on) an existing singleflight entry: the
		// caller did not pay for a decode of its own.
		s.sm().decodeCacheHit()
	}
	outcome := "miss"
	if hit {
		outcome = "hit"
	}
	rec.AnnotateStr(sp, "cache", outcome)
	de.once.Do(func() {
		de.dp, de.err = sim.Predecode(prog.Asm.Instructions)
		if de.err == nil {
			s.sm().predecoded(de.dp)
		}
	})
	return de.dp, de.err
}

// loadProgram loads prog onto m from the suite's decode cache.
func (s *Suite) loadProgram(ctx context.Context, m *sim.Machine, prog *codegen.Program) error {
	dp, err := s.decodedProgram(ctx, prog)
	if err != nil {
		return err
	}
	m.LoadDecoded(dp)
	return nil
}

// preparedSnapshot builds (once per benchmark) the snapshot of a machine
// that has the program's memory image written and its instruction stream
// loaded — the state every run of that benchmark starts from. The
// requester that pays for the build gets a "snapshot.prepare" span; the
// singleflight winners that merely wait record nothing.
func (s *Suite) preparedSnapshot(ctx context.Context, prog *codegen.Program, cfg sim.Config) (*sim.Snapshot, error) {
	s.prepMu.Lock()
	if s.prepared == nil {
		s.prepared = map[string]*preparedEntry{}
	}
	pe := s.prepared[prog.Name]
	if pe == nil {
		pe = &preparedEntry{}
		s.prepared[prog.Name] = pe
	}
	s.prepMu.Unlock()
	pe.once.Do(func() {
		rec := reqtrace.From(ctx)
		sp := rec.Start(reqtrace.Root, "snapshot.prepare")
		defer rec.End(sp)
		m, reused, shared, err := s.pool.acquirePristine(poolKey(cfg))
		if err != nil {
			pe.err = err
			return
		}
		s.sm().poolAcquired(reused, shared)
		if err := prog.Init(m); err != nil {
			pe.err = err
			return
		}
		if err := s.loadProgram(ctx, m, prog); err != nil {
			pe.err = err
			return
		}
		pe.snap = m.Snapshot()
		s.sm().snapshotPrepared(pe.snap)
		rec.AnnotateInt(sp, "resident_bytes", int64(pe.snap.Bytes()))
		s.pool.release(m)
	})
	return pe.snap, pe.err
}

// preparedMachine returns a machine holding prog's post-Init state. Warm
// suites restore a pooled machine from the benchmark's snapshot and
// report pooled=true — the caller must hand it back via releaseMachine
// when done with the run. Cold suites build a fresh machine and replay
// the image, the historical behaviour, with pooled=false.
// Both produce bit-identical run statistics. (The pooled flag, rather
// than a release closure, keeps the per-run hot path allocation-free.)
// A request recorder on ctx gets per-phase spans: machine.build /
// program.init on the cold path, pool.acquire / snapshot.restore on the
// warm path (docs/OBSERVABILITY.md, "Request tracing").
func (s *Suite) preparedMachine(ctx context.Context, prog *codegen.Program, cfg sim.Config) (m *sim.Machine, pooled bool, err error) {
	sm := s.sm()
	rec := reqtrace.From(ctx)
	if s.cold {
		sp := rec.Start(reqtrace.Root, "machine.build")
		m, err := sim.New(cfg)
		rec.End(sp)
		if err != nil {
			return nil, false, err
		}
		sp = rec.Start(reqtrace.Root, "program.init")
		err = prog.Init(m)
		rec.End(sp)
		if err != nil {
			return nil, false, err
		}
		if err := s.loadProgram(ctx, m, prog); err != nil {
			return nil, false, err
		}
		m.SetMetrics(sm.simMetrics())
		return m, false, nil
	}
	snap, err := s.preparedSnapshot(ctx, prog, cfg)
	if err != nil {
		return nil, false, err
	}
	sp := rec.Start(reqtrace.Root, "pool.acquire")
	s.Chaos.PoolAcquire()
	m, reused, shared, err := s.pool.acquire(cfg)
	rec.AnnotateBool(sp, "reused", reused)
	rec.End(sp)
	if err != nil {
		return nil, false, err
	}
	sm.poolAcquired(reused, shared)
	sp = rec.Start(reqtrace.Root, "snapshot.restore")
	if cerr := s.Chaos.SnapshotRestore(); cerr != nil {
		// An injected restore failure must not poison the pool: the
		// machine was never restored, and every pool user restores
		// before running, so re-pooling it as-is is safe.
		rec.End(sp)
		s.pool.release(m)
		return nil, false, cerr
	}
	err = m.Restore(snap)
	if err != nil {
		// A restore mismatch means the machine does not belong to this
		// snapshot's configuration; drop it rather than re-pooling.
		rec.End(sp)
		return nil, false, err
	}
	rec.AnnotateInt(sp, "bytes", int64(m.LastRestoreBytes()))
	rec.End(sp)
	sm.restored(m.LastRestoreBytes())
	m.SetMetrics(sm.simMetrics())
	return m, true, nil
}

// checkpointMachine acquires a pooled machine restored directly to the
// given snapshot — typically a mid-run checkpoint — skipping the
// prepared-snapshot restore preparedMachine performs. A fast-forwarding
// campaign overwrites that state with its own checkpoint anyway, and
// going straight there lets consecutive sites sharing a checkpoint take
// the cheap dirty-page-only restore path instead of paying two full
// delta switches per site. Warm suites only (release via
// releaseMachine with pooled=true).
func (s *Suite) checkpointMachine(cfg sim.Config, snap *sim.Snapshot) (*sim.Machine, error) {
	sm := s.sm()
	s.Chaos.PoolAcquire()
	m, reused, shared, err := s.pool.acquire(cfg)
	if err != nil {
		return nil, err
	}
	sm.poolAcquired(reused, shared)
	if cerr := s.Chaos.SnapshotRestore(); cerr != nil {
		// As in preparedMachine: the machine was never restored, so
		// re-pooling it as-is is safe.
		s.pool.release(m)
		return nil, cerr
	}
	if err := m.Restore(snap); err != nil {
		// A restore mismatch means the machine does not belong to this
		// snapshot's configuration; drop it rather than re-pooling.
		return nil, err
	}
	sm.restored(m.LastRestoreBytes())
	m.SetMetrics(sm.simMetrics())
	return m, nil
}

// kernelMachine returns a machine in post-construction zero state for a
// handcrafted kernel (ablations, sweeps, extension programs). Warm
// suites recycle pooled machines through a pristine-state restore
// (pooled=true, release via releaseMachine); cold suites build fresh
// ones.
func (s *Suite) kernelMachine(cfg sim.Config) (*sim.Machine, bool, error) {
	sm := s.sm()
	if s.cold {
		m, err := sim.New(cfg)
		if err != nil {
			return nil, false, err
		}
		m.SetMetrics(sm.simMetrics())
		return m, false, nil
	}
	m, reused, shared, err := s.pool.acquirePristine(cfg)
	if err != nil {
		return nil, false, err
	}
	sm.poolAcquired(reused, shared)
	m.SetMetrics(sm.simMetrics())
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

// PoolStats reports how many machines the warm-start layer built versus
// recycled — the denominator of the warm-start win (and the
// pool-leak/reuse check in tests).
func (s *Suite) PoolStats() (builds, reuses int64) {
	return s.pool.builds.Load(), s.pool.reuses.Load()
}

// PoolMemShared reports how many acquisitions were served by
// reconfiguring a machine pooled under a different architectural
// configuration with the same memory geometry — each one a main-memory
// allocation the sweep did not have to make.
func (s *Suite) PoolMemShared() int64 {
	return s.pool.memShared.Load()
}

// serveConfig is the configuration run-path machines use (runBenchmark
// and Profile): the suite's architectural config with the run seed
// derived from the suite seed.
func (s *Suite) serveConfig() sim.Config {
	cfg := s.Config
	cfg.Seed = s.Seed ^ 0xcafe
	return cfg
}

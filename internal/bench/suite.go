package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"time"

	"cambricon/internal/baseline/dadiannao"
	"cambricon/internal/chaos"
	"cambricon/internal/codegen"
	"cambricon/internal/metrics"
	"cambricon/internal/reqtrace"
	"cambricon/internal/sim"
	"cambricon/internal/trace"
	"cambricon/internal/workload"
)

// Suite shares generated programs and simulation runs across experiments:
// Figs. 10-13 all measure the same ten benchmark executions.
//
// A Suite is safe for concurrent use: program generation runs once, and
// each benchmark's simulation is deduplicated per name (singleflight), so
// RunAll can fan the ten benchmarks out across a worker pool while the
// experiments keep reading through the same cache. Seed and Config must
// not be mutated once the first run has started.
//
// Runs draw pooled machines restored from per-benchmark snapshots
// instead of building a fresh machine and replaying the memory image
// (the warm-start layer, docs/PERF.md Level 3), and each benchmark's
// program is pre-decoded and fusion-planned once and shared by every
// machine that runs it (Level 4).
type Suite struct {
	// Seed drives weight/input generation and the RV stream.
	Seed uint64
	// Config is the accelerator configuration (Table II defaults).
	Config sim.Config
	// Chaos, when non-nil, injects operational failures into the
	// service path (docs/ROBUSTNESS.md, "Chaos for the service path"):
	// failing/delayed snapshot restores, slow pool acquires, and runs
	// that panic — each recovered into an ordinary error by the run
	// path's existing isolation. nil (the default) injects nothing; the
	// hooks are nil-receiver no-ops, so the hot paths stay
	// allocation-free with bit-identical simulated statistics, the same
	// contract trace.Tracer and metrics.Registry honour. Set before the
	// first run.
	Chaos *chaos.Chaos
	// Metrics, when non-nil, receives service-level instrumentation
	// (docs/OBSERVABILITY.md, "Service metrics"): run and cache counters,
	// per-benchmark cycle/wall-time histograms, pool and snapshot-restore
	// activity, and watchdog/cancellation events from the machines the
	// suite prepares. nil (the default) disables metering entirely; the
	// instrumented paths then stay allocation-free and produce
	// bit-identical simulated statistics. Set before the first run.
	Metrics *metrics.Registry

	// cold turns the warm-start layer off: every run builds a fresh
	// machine and replays the memory image. Simulated statistics are
	// bit-identical either way; only the host benchmark's cold rows and
	// the warm/cold equivalence tests set it.
	cold bool

	progsOnce sync.Once
	progs     []*codegen.Program
	progsErr  error

	metOnce sync.Once
	met     *suiteMetrics

	mu    sync.Mutex
	stats map[string]*statsEntry

	pool     machinePool
	prepMu   sync.Mutex
	prepared map[string]*preparedEntry

	decMu   sync.Mutex
	decoded map[string]*decodedEntry
}

// statsEntry is the singleflight cell for one benchmark's simulation: the
// first caller runs it under the once, every later (or concurrent) caller
// blocks on the same once and reads the shared result.
type statsEntry struct {
	once sync.Once
	st   sim.Stats
	err  error
}

// NewSuite builds a suite over the Table II machine.
func NewSuite(seed uint64) *Suite {
	return &Suite{Seed: seed, Config: sim.DefaultConfig(), stats: map[string]*statsEntry{}}
}

// sm resolves the suite's metric bundle once (nil when no registry is
// attached; every suiteMetrics method is a nil-receiver no-op).
func (s *Suite) sm() *suiteMetrics {
	s.metOnce.Do(func() {
		if s.Metrics != nil {
			s.met = newSuiteMetrics(s.Metrics)
		}
	})
	return s.met
}

// Programs generates (once) the ten Table III benchmark programs.
func (s *Suite) Programs() ([]*codegen.Program, error) {
	s.progsOnce.Do(func() {
		s.progs, s.progsErr = codegen.All(s.Seed)
	})
	return s.progs, s.progsErr
}

// Program returns one named benchmark program.
func (s *Suite) Program(name string) (*codegen.Program, error) {
	progs, err := s.Programs()
	if err != nil {
		return nil, err
	}
	for _, p := range progs {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("bench: no benchmark %q", name)
}

// Stats runs (once) the named benchmark on the Cambricon-ACC simulator,
// verifying its outputs against the reference model. Concurrent calls for
// the same benchmark share a single simulation.
func (s *Suite) Stats(name string) (sim.Stats, error) {
	return s.StatsCtx(context.Background(), name)
}

// StatsCtx is Stats with cancellation. The singleflight contract holds:
// the first caller's simulation is shared by everyone blocked on the
// same benchmark. A run ended by cancellation is NOT cached — the entry
// is dropped so a later call with a live context retries cleanly.
func (s *Suite) StatsCtx(ctx context.Context, name string) (sim.Stats, error) {
	s.mu.Lock()
	if s.stats == nil {
		s.stats = map[string]*statsEntry{}
	}
	entry, ok := s.stats[name]
	if !ok {
		entry = &statsEntry{}
		s.stats[name] = entry
	}
	s.mu.Unlock()
	if ok {
		// Served from (or blocked on) an existing singleflight entry: the
		// caller did not pay for a simulation of its own.
		s.sm().cacheHit()
	}
	entry.once.Do(func() {
		entry.st, entry.err = s.runBenchmark(ctx, name)
	})
	if errors.Is(entry.err, context.Canceled) || errors.Is(entry.err, context.DeadlineExceeded) {
		s.mu.Lock()
		if s.stats[name] == entry {
			delete(s.stats, name)
		}
		s.mu.Unlock()
	}
	return entry.st, entry.err
}

// runBenchmark simulates one benchmark on a prepared machine (pooled and
// snapshot-restored, or freshly built in a cold suite). A panic anywhere
// in generation or simulation is recovered into the returned error so one
// poisoned benchmark cannot take down a whole campaign. A request
// recorder on ctx (reqtrace.With) gets the per-phase span tree — machine
// preparation inside preparedMachine, then a "sim.run" span annotated
// with the run's cycle counts and its CPI-stack stall attribution — at
// zero cost when no recorder is attached.
func (s *Suite) runBenchmark(ctx context.Context, name string) (st sim.Stats, err error) {
	sm := s.sm()
	sm.runStarted()
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("bench: %s: panic: %v", name, r)
		}
		sm.runDone(name, st, time.Since(start), err)
	}()
	p, err := s.Program(name)
	if err != nil {
		return sim.Stats{}, err
	}
	cfg := s.serveConfig()
	m, pooled, err := s.preparedMachine(ctx, p, cfg)
	if err != nil {
		return sim.Stats{}, err
	}
	defer s.releaseMachine(m, pooled)
	// Chaos may stall here or panic in the run's place; the deferred
	// recover above turns an injected panic into this run's error
	// without touching the daemon or the other in-flight runs.
	s.Chaos.BeforeRun()
	rec := reqtrace.From(ctx)
	sp := rec.Start(reqtrace.Root, "sim.run")
	st, err = p.ExecutePreparedContext(ctx, m)
	annotateRun(rec, sp, &st)
	rec.End(sp)
	return st, err
}

// annotateRun links the sim-side span to the run's simulated outcome:
// total cycles and instructions, plus the attributed CPI stack from
// internal/trace (one attribute per stall cause, in cause order), so a
// span timeline explains simulated time as well as wall time. A nil
// recorder makes this free.
func annotateRun(rec *reqtrace.Recorder, sp reqtrace.SpanRef, st *sim.Stats) {
	if rec == nil {
		return
	}
	rec.AnnotateInt(sp, "cycles", st.Cycles)
	rec.AnnotateInt(sp, "instructions", st.Instructions)
	for _, c := range trace.Causes() {
		rec.AnnotateInt(sp, "stall."+c.String(), st.Stalls[c])
	}
}

// ConfigKey returns a short stable digest of the suite's architectural
// configuration and seed — the identity a durable run ledger stamps on
// every row, so recovered history is attributable to the exact machine
// that produced it across restarts and config changes.
func (s *Suite) ConfigKey() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|seed=%d", s.Config, s.Seed)
	return fmt.Sprintf("%016x", h.Sum64())
}

// RunOnce executes one benchmark simulation unconditionally — no
// singleflight cache — over the warm-start layer: the service path
// (cmd/camserve), where every request is a real run on a pooled machine
// and the aggregate behaviour is what the metrics registry observes.
func (s *Suite) RunOnce(ctx context.Context, name string) (sim.Stats, error) {
	return s.runBenchmark(ctx, name)
}

// Profile re-runs one benchmark with a stall-attribution profile
// attached and returns the materialized report (all opcode rows). It
// deliberately bypasses the Stats singleflight cache: the traced run
// gets its own machine, built exactly like runBenchmark's, and the
// tracer contract guarantees its cycle counts match the cached
// untraced run bit for bit.
func (s *Suite) Profile(name string) (*trace.Report, error) {
	p, err := s.Program(name)
	if err != nil {
		return nil, err
	}
	cfg := s.serveConfig()
	m, pooled, err := s.preparedMachine(context.Background(), p, cfg)
	if err != nil {
		return nil, err
	}
	defer s.releaseMachine(m, pooled)
	prof := trace.NewProfile()
	prof.Label = name
	m.SetTracer(prof)
	if _, err := p.ExecutePreparedContext(context.Background(), m); err != nil {
		return nil, err
	}
	return prof.Report(0), nil
}

// Seconds returns the simulated wall-clock time of one benchmark.
func (s *Suite) Seconds(name string) (float64, error) {
	st, err := s.Stats(name)
	if err != nil {
		return 0, err
	}
	return st.Seconds(s.Config.ClockHz), nil
}

// DaDianNao compiles and times one benchmark on the baseline, when
// expressible.
func (s *Suite) DaDianNao(name string) (int64, dadiannao.Activity, bool, error) {
	b, ok := workload.ByName(name)
	if !ok {
		return 0, dadiannao.Activity{}, false, fmt.Errorf("bench: no workload %q", name)
	}
	prog, err := dadiannao.Compile(&b)
	if err != nil {
		return 0, dadiannao.Activity{}, false, nil // inexpressible, not an error
	}
	cycles, act := dadiannao.DefaultConfig().Cycles(prog)
	return cycles, act, true, nil
}

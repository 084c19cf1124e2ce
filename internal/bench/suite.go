package bench

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
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
// program is pre-decoded once and shared by every machine that runs it
// (Level 4). Everything the suite keeps for one
// benchmark lives in one record (benchmark), built with the programs.
type Suite struct {
	// Seed drives weight/input generation and the RV stream.
	Seed uint64
	// Config is the accelerator configuration (Table II defaults).
	Config sim.Config
	// Chaos, when non-nil, injects operational failures into the
	// service path (docs/ROBUSTNESS.md, "Chaos for the service path"):
	// failing snapshot restores and runs that stall or panic — each
	// recovered into an ordinary error by the run path's existing
	// isolation. nil (the default) injects nothing; the hooks are
	// nil-receiver no-ops, so the hot paths stay allocation-free with
	// bit-identical simulated statistics, the same contract trace.Tracer
	// and metrics.Registry honour. Set before the first run.
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
	// byName holds one record per generated program. It is built with
	// the programs and never written after, so lookups take no lock.
	byName map[string]*benchmark

	metOnce sync.Once
	met     *suiteMetrics

	// mu guards each record's stats pointer.
	mu sync.Mutex

	pool machinePool
	// injectors holds the *fault.Single injectors RunSiteBuf attaches,
	// so a fast-forwarded fault site does not allocate one.
	injectors sync.Pool
}

// benchmark is everything the suite keeps for one program: its
// pre-decoded instruction stream (docs/PERF.md, Level 4), the post-Init
// snapshot every warm run restores (Level 3), the verified output later
// runs compare against (checkOutput), and the Stats singleflight cell.
// The decode is made with the record (newBenchmark); the snapshot is
// built once, by its first user. Programs outside the suite's ten (the
// Section VI logistic pair, test kernels) run through a record of their
// own that nothing keeps.
type benchmark struct {
	prog *codegen.Program
	dp   *sim.DecodedProgram

	snapOnce sync.Once
	snap     *sim.Snapshot
	snapErr  error

	// out is the serialized output (codegen.Program.Output) of the
	// first run that passed Verify, nil until one has.
	out atomic.Pointer[[]byte]

	// stats is the current Stats cell, guarded by Suite.mu; a cancelled
	// run clears it so the next call retries.
	stats *statsEntry
}

// statsEntry is the singleflight cell for one benchmark's simulation: the
// first caller runs it under the once, every later (or concurrent) caller
// blocks on the same once and reads the shared result.
type statsEntry struct {
	once sync.Once
	st   sim.Stats
	err  error
}

// newBenchmark builds p's record with its pre-decoded program, which
// every machine that runs p shares.
func newBenchmark(p *codegen.Program) (*benchmark, error) {
	dp, err := sim.Predecode(p.Asm.Instructions)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", p.Name, err)
	}
	return &benchmark{prog: p, dp: dp}, nil
}

// NewSuite builds a suite over the Table II machine.
func NewSuite(seed uint64) *Suite {
	return &Suite{Seed: seed, Config: sim.DefaultConfig()}
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
		progs, err := codegen.All(s.Seed)
		if err != nil {
			s.progsErr = err
			return
		}
		byName := make(map[string]*benchmark, len(progs))
		for _, p := range progs {
			if byName[p.Name], err = newBenchmark(p); err != nil {
				s.progsErr = err
				return
			}
		}
		s.progs, s.byName = progs, byName
	})
	return s.progs, s.progsErr
}

// Program returns one named benchmark program.
func (s *Suite) Program(name string) (*codegen.Program, error) {
	b, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	return b.prog, nil
}

// lookup returns one named benchmark's record.
func (s *Suite) lookup(name string) (*benchmark, error) {
	if _, err := s.Programs(); err != nil {
		return nil, err
	}
	if b := s.byName[name]; b != nil {
		return b, nil
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
// is dropped so a later call with a live context retries cleanly. An
// unknown name is a failed run, and nothing is cached for it.
func (s *Suite) StatsCtx(ctx context.Context, name string) (sim.Stats, error) {
	b, err := s.lookup(name)
	if err != nil {
		return s.runBenchmark(ctx, name)
	}
	s.mu.Lock()
	entry := b.stats
	if entry == nil {
		entry = &statsEntry{}
		b.stats = entry
	}
	s.mu.Unlock()
	entry.once.Do(func() {
		entry.st, entry.err = s.runBenchmark(ctx, name)
	})
	if errors.Is(entry.err, context.Canceled) || errors.Is(entry.err, context.DeadlineExceeded) {
		s.mu.Lock()
		if b.stats == entry {
			b.stats = nil
		}
		s.mu.Unlock()
	}
	return entry.st, entry.err
}

// runBenchmark simulates one benchmark on a prepared machine (pooled and
// snapshot-restored, or freshly built in a cold suite) and checks its
// outputs (checkOutput). A panic anywhere in generation or simulation is
// recovered into the returned error so one poisoned benchmark cannot take
// down a whole campaign; an unknown name is counted as a failed run. A
// request recorder on ctx (reqtrace.With) gets the per-phase span tree —
// machine preparation inside preparedMachine, then a "sim.run" span
// annotated with the run's cycle counts, its CPI-stack stall attribution
// and which output check it paid for — at zero cost when no recorder is
// attached.
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
	b, err := s.lookup(name)
	if err != nil {
		return sim.Stats{}, err
	}
	m, pooled, err := s.preparedMachine(ctx, b, s.Config.MaxCycles)
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
	st, check, err := b.runChecked(ctx, m)
	if check != "" {
		rec.AnnotateStr(sp, "output", check)
	}
	annotateRun(rec, sp, &st)
	rec.End(sp)
	return st, err
}

// The output checks a run can pay for, as the "sim.run" span's "output"
// attribute reports them.
const (
	outputVerify  = "verify"
	outputCompare = "compare"
)

// runChecked runs a prepared machine to completion and checks its
// outputs, reporting which check ran ("" when the run itself failed).
func (b *benchmark) runChecked(ctx context.Context, m *sim.Machine) (sim.Stats, string, error) {
	st, err := m.RunContext(ctx)
	if err != nil {
		return st, "", fmt.Errorf("bench: %s: %w", b.prog.Name, err)
	}
	check, err := b.checkOutput(m)
	return st, check, err
}

// checkOutput checks the outputs of a completed run of b on m and
// reports which check ran. The first run of a program to pass
// Program.Verify records its output; every later run compares its
// declared regions in main memory with that record, in place and
// without allocating, and any difference fails the run. Every run of a
// program on one suite starts from the same image with the same
// configuration and seed, so it must reproduce the record byte for byte
// — a stricter check than Verify's tolerances, without recomputing the
// float64 reference. Concurrent first runs may each verify; exactly one
// records. A run that fails its check records nothing.
func (b *benchmark) checkOutput(m *sim.Machine) (string, error) {
	p := b.prog
	if want := b.out.Load(); want != nil {
		return outputCompare, p.CompareOutput(m, *want)
	}
	out, err := p.Output(m, nil)
	if err == nil {
		err = p.VerifyOutput(out)
	}
	if err == nil {
		b.out.CompareAndSwap(nil, &out)
	}
	return outputVerify, err
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
// gets its own machine, built exactly like runBenchmark's and checked
// the same way, and the tracer contract guarantees its cycle counts
// match the cached untraced run bit for bit.
func (s *Suite) Profile(name string) (*trace.Report, error) {
	b, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	m, pooled, err := s.preparedMachine(context.Background(), b, s.Config.MaxCycles)
	if err != nil {
		return nil, err
	}
	defer s.releaseMachine(m, pooled)
	prof := trace.NewProfile()
	prof.Label = name
	m.SetTracer(prof)
	if _, _, err := b.runChecked(context.Background(), m); err != nil {
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

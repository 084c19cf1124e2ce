package fault

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"cambricon/internal/metrics"
)

// Outcome classifies one faulted run against its golden twin.
type Outcome uint8

const (
	// OutcomeMasked: the run finished and its result region is
	// byte-identical to the golden run — the fault was absorbed.
	OutcomeMasked Outcome = iota
	// OutcomeSDC: the run finished "successfully" but its result region
	// differs — silent data corruption, the worst class.
	OutcomeSDC
	// OutcomeDetected: the simulator surfaced a structured error
	// (undecodable fetch, runtime fault) instead of finishing.
	OutcomeDetected
	// OutcomeHang: the watchdog fired — the program exceeded its cycle
	// budget without committing its last instruction.
	OutcomeHang
	// OutcomeCrash: the run panicked and was recovered by the harness.
	OutcomeCrash

	// NumOutcomes sizes tallies.
	NumOutcomes = 5
)

var outcomeNames = [NumOutcomes]string{
	"masked", "sdc", "detected", "hang", "crash",
}

func (o Outcome) String() string {
	if int(o) < len(outcomeNames) {
		return outcomeNames[o]
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// MarshalText renders the outcome name into reports.
func (o Outcome) MarshalText() ([]byte, error) { return []byte(o.String()), nil }

// UnmarshalText parses an outcome name.
func (o *Outcome) UnmarshalText(b []byte) error {
	for i, name := range outcomeNames {
		if string(b) == name {
			*o = Outcome(i)
			return nil
		}
	}
	return fmt.Errorf("fault: unknown outcome %q", b)
}

// Observation is what one simulation run (golden or faulted) produced,
// as reported by a Target.
type Observation struct {
	// Cycles and Instructions are the run's final counters (best-effort
	// for runs that did not finish).
	Cycles       int64
	Instructions int64
	// Output is the serialized result region the classification compares
	// (only meaningful when the run finished without error).
	Output []byte
	// Err is the structured error a detected fault surfaced as.
	Err error
	// Hung is set when the watchdog ended the run; Crashed when a panic
	// was recovered.
	Hung    bool
	Crashed bool
	// Geometry bounds the fault-site space (filled by golden runs).
	Geometry Geometry
}

// Classify maps one faulted observation to its outcome class. Crash and
// hang dominate; a structured error is a detected fault; otherwise the
// result region decides masked vs. silent data corruption.
func Classify(golden, obs Observation) Outcome {
	switch {
	case obs.Crashed:
		return OutcomeCrash
	case obs.Hung:
		return OutcomeHang
	case obs.Err != nil:
		return OutcomeDetected
	case bytes.Equal(golden.Output, obs.Output):
		return OutcomeMasked
	}
	return OutcomeSDC
}

// Target is one benchmark the campaign can run. It is implemented in
// internal/bench (the fault package cannot import the simulator without
// creating a cycle, for the same reason trace cannot).
type Target interface {
	// Name identifies the benchmark in reports.
	Name() string
	// Run executes the benchmark once with the given injector (nil for
	// the golden run) and cycle budget (0 = no watchdog) and reports
	// what happened. Run must recover its own panics into
	// Observation.Crashed and must be safe for concurrent calls.
	Run(inj Injector, maxCycles int64) Observation
}

// BufferedTarget is an optional Target extension that lets the campaign
// recycle each worker's output buffer across faulted runs instead of
// allocating a fresh Observation.Output every time.
type BufferedTarget interface {
	Target
	// RunBuf is Run with a caller-owned scratch buffer that may back
	// Observation.Output. The caller promises it is done with buf (and
	// any Output aliasing it) before the next RunBuf call on the same
	// buffer; distinct buffers are safe concurrently.
	RunBuf(inj Injector, maxCycles int64, buf []byte) Observation
}

// FastForwardTarget is an optional Target extension for O(sites)
// campaigns: the target keeps interval checkpoints of its golden run and
// services each transient fault site by restoring the nearest checkpoint
// at or before the site's dynamic index and simulating only the delta,
// instead of replaying the whole prefix on the observed (injected) path.
// Implementations must keep RunSiteBuf observationally identical to
// RunBuf with a retargeted injector — the campaign pins this with
// differential tests, and silently falls back to the buffered path when
// PrepareCheckpoints fails.
type FastForwardTarget interface {
	BufferedTarget
	// PrepareCheckpoints captures (or reuses) k evenly spaced mid-run
	// checkpoints of the fault-free run. It is called once per campaign
	// target, after the golden run, before any RunSiteBuf; an error
	// disables fast-forwarding for this target (the campaign falls back
	// to RunBuf).
	PrepareCheckpoints(k int) error
	// RunSiteBuf is RunBuf for one fault site, free to fast-forward from
	// a prepared checkpoint. Whole-run models (stuck-lane) and any other
	// site the target cannot fast-forward must produce their observation
	// by the ordinary path internally.
	RunSiteBuf(f Fault, maxCycles int64, buf []byte) Observation
}

// Campaign sweeps seeded fault sites across a set of benchmark targets.
type Campaign struct {
	// Seed drives site generation; the same seed yields a byte-identical
	// report.
	Seed uint64
	// Sites is the number of fault sites swept per benchmark.
	Sites int
	// Checkpoints, when positive, asks each FastForwardTarget to keep
	// that many interval checkpoints of its golden run and service fault
	// sites by restore-then-delta-simulate. Reports are byte-identical
	// with or without checkpoints; targets that do not implement
	// FastForwardTarget (or whose preparation fails) run unchanged.
	Checkpoints int
	// Models, when non-empty, restricts site generation to a model
	// subset (round-robin over the subset, see SitesOf). nil sweeps the
	// full taxonomy, byte-identical to campaigns before the field
	// existed.
	Models []Model
	// Workers bounds concurrent faulted runs within one target (<= 0
	// means GOMAXPROCS).
	Workers int
	// TargetWorkers bounds concurrently swept targets — the outer pool
	// on top of the per-site Workers pool, cheap now that each run draws
	// a pooled warm machine (<= 0 means GOMAXPROCS, capped at the target
	// count). The report bytes are independent of both worker counts.
	TargetWorkers int
	// Metrics, when non-nil, receives campaign-level service metrics:
	// per-classification outcome counters and a swept-target counter.
	// nil (the default) is free, per the metrics package's nil contract.
	Metrics *metrics.Registry
}

// Metric names exported by an instrumented Campaign.
const (
	MetricFaultRuns        = "cambricon_fault_runs_total"
	MetricFaultTargets     = "cambricon_fault_targets_total"
	MetricFaultFastForward = "cambricon_fault_fastforward_runs_total"
)

// watchdogFactor scales each benchmark's golden cycle count into the
// faulted runs' cycle budget: generous enough for any fault that merely
// slows a run down, tight enough to classify real livelock fast.
const watchdogFactor = 8

// Run executes the campaign: per target, one golden run, then Sites
// faulted runs classified against it. Targets fan out across a
// TargetWorkers outer pool, and the faulted runs of each target across
// a Workers inner pool; the assembled report is byte-identical for
// every combination of worker counts (per-target reports are assembled
// in target order, and each target's runs in site order). The context
// cancels the sweep between runs; a canceled campaign returns the error
// with a partial (but internally consistent) report discarded.
func (c *Campaign) Run(ctx context.Context, targets []Target) (*Report, error) {
	workers := c.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outer := c.TargetWorkers
	if outer <= 0 {
		outer = runtime.GOMAXPROCS(0)
	}
	if outer > len(targets) {
		outer = len(targets)
	}
	rep := &Report{
		Schema:         Schema,
		Seed:           c.Seed,
		SitesPerBench:  c.Sites,
		WatchdogFactor: watchdogFactor,
		Models:         c.Models,
	}

	// A failing target cancels the whole sweep; the parent context's own
	// cancellation is distinguished afterwards.
	sweepCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	reports := make([]*BenchmarkReport, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < outer; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				reports[i], errs[i] = c.runTarget(sweepCtx, targets[i], workers)
				if errs[i] != nil {
					cancel()
				}
			}
		}()
	}
dispatch:
	for i := range targets {
		select {
		case <-sweepCtx.Done():
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()

	// Deterministic error selection: the lowest-index real failure wins;
	// cancellation artifacts of the internal fan-out cancel (and targets
	// never dispatched) don't mask it. A parent-context cancellation with
	// no real failure surfaces as ctx.Err, like the serial sweep did.
	for i := range targets {
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) && !errors.Is(errs[i], context.DeadlineExceeded) {
			return nil, errs[i]
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if reports[i] == nil {
			// Unreachable unless a worker died before assigning; treat as
			// cancellation rather than emit a hole in the report.
			return nil, context.Canceled
		}
	}

	outcomes := c.outcomeCounters()
	swept := c.Metrics.Counter(MetricFaultTargets, "benchmark targets swept by fault campaigns")
	for i := range targets {
		br := reports[i]
		rep.Benchmarks = append(rep.Benchmarks, br)
		rep.Total = rep.Total.plus(br.Tally)
		swept.Inc()
		for _, r := range br.Runs {
			outcomes[r.Outcome].Inc()
		}
	}
	return rep, nil
}

// outcomeCounters resolves the per-classification counters (all nil
// no-ops when no registry is attached).
func (c *Campaign) outcomeCounters() [NumOutcomes]*metrics.Counter {
	var out [NumOutcomes]*metrics.Counter
	for i := range out {
		out[i] = c.Metrics.Counter(MetricFaultRuns, "classified faulted runs",
			metrics.L("outcome", Outcome(i).String()))
	}
	return out
}

// runTarget sweeps one target: golden run, site generation, then the
// faulted runs across an inner worker pool. The returned report's Runs
// are in site order and its Tally accumulated in site order, so the
// bytes are independent of worker scheduling.
func (c *Campaign) runTarget(ctx context.Context, t Target, workers int) (*BenchmarkReport, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	golden := t.Run(nil, 0)
	switch {
	case golden.Crashed && golden.Err != nil:
		return nil, fmt.Errorf("fault: golden run of %s crashed: %w", t.Name(), golden.Err)
	case golden.Crashed:
		// A recovered panic with no error attached: don't wrap nil.
		return nil, fmt.Errorf("fault: golden run of %s crashed (panic recovered without detail)", t.Name())
	case golden.Err != nil:
		return nil, fmt.Errorf("fault: golden run of %s failed: %w", t.Name(), golden.Err)
	}
	sites := SitesOf(BenchSeed(c.Seed, t.Name()), c.Sites, golden.Geometry, c.Models)
	budget := golden.Cycles*watchdogFactor + 1024

	br := &BenchmarkReport{
		Name:               t.Name(),
		GoldenCycles:       golden.Cycles,
		GoldenInstructions: golden.Instructions,
		Runs:               make([]RunRecord, len(sites)),
	}

	bt, buffered := t.(BufferedTarget)
	ft, fastforward := t.(FastForwardTarget)
	if fastforward && c.Checkpoints > 0 {
		// Preparation failure is not a campaign failure: the target keeps
		// producing correct observations through the ordinary path, just
		// without the O(sites) speedup.
		fastforward = ft.PrepareCheckpoints(c.Checkpoints) == nil
	} else {
		fastforward = false
	}
	ffRuns := c.Metrics.Counter(MetricFaultFastForward,
		"faulted runs dispatched through checkpoint fast-forwarding")

	// Dispatch sites in ascending dynamic-index order (ties broken by
	// site index) while every result is still written to its site-order
	// slot: the report bytes are unchanged, and targets that fast-forward
	// from interval checkpoints see monotone fault indices instead of
	// random seeks — each worker's restore point only ever moves forward.
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return sites[order[a]].At < sites[order[b]].At
	})

	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one injector and one output buffer:
			// Classify is done with obs.Output before the next RunBuf
			// reuses it, and the target never retains the injector
			// past its run.
			inj := New(Fault{})
			var buf []byte
			for j := range jobs {
				i := order[j]
				inj.Retarget(sites[i])
				var obs Observation
				switch {
				case fastforward:
					obs = ft.RunSiteBuf(sites[i], budget, buf)
					if cap(obs.Output) > cap(buf) {
						buf = obs.Output
					}
					ffRuns.Inc()
				case buffered:
					obs = bt.RunBuf(inj, budget, buf)
					if cap(obs.Output) > cap(buf) {
						buf = obs.Output
					}
				default:
					obs = t.Run(inj, budget)
				}
				rec := RunRecord{
					Fault:   sites[i],
					Outcome: Classify(golden, obs),
					Cycles:  obs.Cycles,
				}
				if obs.Err != nil {
					rec.Detail = obs.Err.Error()
				}
				br.Runs[i] = rec
			}
		}()
	}
	var canceled error
dispatch:
	for i := range sites {
		select {
		case <-ctx.Done():
			canceled = ctx.Err()
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
	if canceled != nil {
		return nil, canceled
	}
	for i := range br.Runs {
		br.Tally.add(br.Runs[i].Outcome)
	}
	return br, nil
}

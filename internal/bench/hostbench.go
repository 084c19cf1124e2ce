package bench

// This file measures host-side throughput of the warm-start layer: how
// much real time and allocation a campaign-style run costs with pooled,
// snapshot-restored machines versus the historical build-a-machine-per-run
// path. The results go into BENCH_host.json (camrepro -host-json, `make
// bench-host`) so the warm/cold ratio is diffable commit to commit; the
// go-test benchmarks in hostbench_test.go wrap the same measurement
// closures.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"cambricon/internal/fault"
	"cambricon/internal/fixed"
	"cambricon/internal/sim"
)

// HostSchema identifies the HostReport format.
const HostSchema = "cambricon-bench-host/v1"

// hostBenchmark is the Table III benchmark the host measurements run.
// MLP is the cheapest non-trivial benchmark to *simulate* (49
// instructions), which maximizes the share of per-run cost that machine
// setup — the thing the warm-start layer removes — accounts for; it is
// also the canonical smoke benchmark elsewhere in the repo.
const hostBenchmark = "MLP"

// hostFFCheckpoints is the interval-checkpoint count of the
// campaign-fastforward rows: enough that the average fault-free prefix
// shrinks to ~1/18 of the run, few enough that preparing them stays a
// small one-time cost.
const hostFFCheckpoints = 8

// dispatchBenchmark is the Table III benchmark the campaign-fastforward
// rows run. It is named for the scalar loops SOM ran until its steps
// became whole-map vector instructions; no suite program is
// dispatch-bound now. SOM's 511 instructions are mostly vector
// instructions over all 2,304 prototype elements, so skipping a
// fault-free prefix saves their kernels and timing, and the rows
// measure what checkpoints save a transient site on a short run of long
// vector instructions. (MLP, dominated by a handful of large DMAs,
// would measure memmove instead.)
const dispatchBenchmark = "SOM"

// serveBenchmark is the Table III benchmark the serve-run/warm row runs:
// the program whose float64 reference check is the costliest, so a run
// path that went back to verifying every run would show in the row's
// allocations (46 per run) as well as its time.
const serveBenchmark = "RBM"

// HostReport is the machine-readable host-throughput record
// (conventionally BENCH_host.json).
type HostReport struct {
	// Schema versions the file format.
	Schema string `json:"schema"`
	// Generated is the RFC 3339 emission time.
	Generated string `json:"generated"`
	// GoVersion and GOMAXPROCS describe the measurement host.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// KernelForm is the form of the fixed-point kernels the host ran
	// (fixed.KernelForm: "avx2" or "go"); empty in records that predate
	// the field.
	KernelForm string `json:"kernel_form,omitempty"`
	// Seed is the benchmark generation seed; Benchmark the program the
	// warm/cold measurements ran; DispatchBenchmark the program the
	// campaign-fastforward rows ran.
	Seed              uint64 `json:"seed"`
	Benchmark         string `json:"benchmark"`
	DispatchBenchmark string `json:"dispatch_benchmark,omitempty"`
	// Entries holds one row per measurement, warm and cold variants.
	Entries []HostEntry `json:"entries"`
	// CampaignSpeedup and CampaignAllocRatio are the cold/warm ratios of
	// the campaign-run rows: how many times fewer nanoseconds and heap
	// allocations a warm campaign run costs. RestoreSpeedup and
	// RestoreAllocRatio are the same ratios for the machine-acquisition
	// rows (snapshot restore vs. full build).
	CampaignSpeedup    float64 `json:"campaign_speedup_cold_over_warm"`
	CampaignAllocRatio float64 `json:"campaign_alloc_ratio_cold_over_warm"`
	RestoreSpeedup     float64 `json:"restore_speedup_cold_over_warm"`
	RestoreAllocRatio  float64 `json:"restore_alloc_ratio_cold_over_warm"`
	// FastForwardSpeedup is the replay/checkpointed wall-time ratio of
	// the campaign-fastforward rows: how many times faster a warm,
	// transient-models-only fault campaign over DispatchBenchmark runs
	// when sites fast-forward from interval checkpoints instead of
	// replaying the whole fault-free prefix (zero in pre-checkpoint
	// reports).
	FastForwardSpeedup float64 `json:"campaign_speedup_replay_over_fastforward,omitempty"`
}

// HostEntry is one measurement row.
type HostEntry struct {
	// Name is "<measurement>/<warm|cold>".
	Name string `json:"name"`
	// Runs is the number of timed iterations behind the averages.
	Runs int `json:"runs"`
	// NSPerRun, AllocsPerRun and BytesPerRun are per-iteration averages
	// of wall time, heap allocation count and heap bytes allocated.
	NSPerRun     float64 `json:"ns_per_run"`
	AllocsPerRun float64 `json:"allocs_per_run"`
	BytesPerRun  float64 `json:"bytes_per_run"`
}

// Write emits the report as indented JSON.
func (r *HostReport) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// hostMeasure times fn over runs iterations, excluding the per-iteration
// prep from both the clock and the allocation counters. Alloc deltas come
// from runtime.MemStats (Mallocs/TotalAlloc are monotonic, so GC between
// iterations does not disturb them).
func hostMeasure(name string, runs int, prep, fn func() error) (HostEntry, error) {
	// Settle the heap first so GC debt left by earlier measurements (the
	// cold paths allocate hundreds of MB) is not billed to this row.
	runtime.GC()
	var ns, allocs, bytes uint64
	var ms0, ms1 runtime.MemStats
	for i := 0; i < runs; i++ {
		if prep != nil {
			if err := prep(); err != nil {
				return HostEntry{}, fmt.Errorf("bench: host %s: prep: %w", name, err)
			}
		}
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if err := fn(); err != nil {
			return HostEntry{}, fmt.Errorf("bench: host %s: %w", name, err)
		}
		ns += uint64(time.Since(start).Nanoseconds())
		runtime.ReadMemStats(&ms1)
		allocs += ms1.Mallocs - ms0.Mallocs
		bytes += ms1.TotalAlloc - ms0.TotalAlloc
	}
	n := float64(runs)
	return HostEntry{
		Name:         name,
		Runs:         runs,
		NSPerRun:     float64(ns) / n,
		AllocsPerRun: float64(allocs) / n,
		BytesPerRun:  float64(bytes) / n,
	}, nil
}

// hostCampaignFn builds the campaign-throughput measurement closure: one
// fault campaign (golden run + sites faulted runs, single worker so the
// measurement is scheduling-free) over the host benchmark on the given
// suite. The first call pays the suite's one-time costs (program
// generation, snapshot capture when warm), so callers run it once untimed
// before measuring.
func hostCampaignFn(s *Suite, sites int) (func() error, error) {
	return hostCampaignFnWith(s, hostBenchmark, fault.Campaign{Seed: s.Seed, Sites: sites, Workers: 1})
}

// hostCampaignFnWith is the fully parameterized variant: the caller
// supplies the campaign (checkpoint count, model subset), the helper
// binds it to one target of the suite.
func hostCampaignFnWith(s *Suite, name string, c fault.Campaign) (func() error, error) {
	targets, err := s.FaultTargets()
	if err != nil {
		return nil, err
	}
	var target fault.Target
	for _, t := range targets {
		if t.Name() == name {
			target = t
		}
	}
	if target == nil {
		return nil, fmt.Errorf("bench: host: no benchmark %q", name)
	}
	return func() error {
		_, err := c.Run(context.Background(), []fault.Target{target})
		return err
	}, nil
}

// hostRestoreFns builds the machine-acquisition measurement pair: the
// warm path restores a run-dirtied pooled machine to the benchmark's
// post-Init snapshot (prep re-dirties it by running the program); the
// cold path is what a cold suite does instead — sim.New plus image
// replay and loading the suite's cached decoded program.
func hostRestoreFns(s *Suite) (prep, warm, cold func() error, err error) {
	b, err := s.lookup(hostBenchmark)
	if err != nil {
		return nil, nil, nil, err
	}
	p, cfg := b.prog, s.runConfig(0)
	snap, err := s.preparedSnapshot(context.Background(), b)
	if err != nil {
		return nil, nil, nil, err
	}
	dp, err := s.decodedProgram(context.Background(), b)
	if err != nil {
		return nil, nil, nil, err
	}
	m, err := sim.New(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := m.Restore(snap); err != nil {
		return nil, nil, nil, err
	}
	prep = func() error {
		_, err := m.Run()
		return err
	}
	warm = func() error { return m.Restore(snap) }
	cold = func() error {
		fresh, err := sim.New(cfg)
		if err != nil {
			return err
		}
		if err := p.Init(fresh); err != nil {
			return err
		}
		fresh.LoadDecoded(dp)
		return nil
	}
	return prep, warm, cold, nil
}

// RunHostBenchmarks measures campaign throughput and machine acquisition,
// warm and cold, and assembles the HostReport. runs is the timed
// iteration count per row (restore rows use 4x, they are much cheaper);
// sites is the faulted-run count per campaign iteration.
func RunHostBenchmarks(seed uint64, runs, sites int) (*HostReport, error) {
	if runs <= 0 {
		runs = 10
	}
	if sites <= 0 {
		sites = 32
	}
	rep := &HostReport{
		Schema:            HostSchema,
		Generated:         time.Now().UTC().Format(time.RFC3339),
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		KernelForm:        fixed.KernelForm(),
		Seed:              seed,
		Benchmark:         hostBenchmark,
		DispatchBenchmark: dispatchBenchmark,
	}

	warmSuite := NewSuite(seed)
	coldSuite := NewSuite(seed)
	coldSuite.cold = true

	warmRun, err := hostCampaignFn(warmSuite, sites)
	if err != nil {
		return nil, err
	}
	coldRun, err := hostCampaignFn(coldSuite, sites)
	if err != nil {
		return nil, err
	}
	// Pay one-time costs (program generation, snapshot capture) untimed.
	if err := warmRun(); err != nil {
		return nil, err
	}
	if err := coldRun(); err != nil {
		return nil, err
	}
	warmCamp, err := hostMeasure("campaign-run/warm", runs, nil, warmRun)
	if err != nil {
		return nil, err
	}
	coldCamp, err := hostMeasure("campaign-run/cold", runs, nil, coldRun)
	if err != nil {
		return nil, err
	}

	prep, warmFn, coldFn, err := hostRestoreFns(warmSuite)
	if err != nil {
		return nil, err
	}
	warmRest, err := hostMeasure("machine-acquire/warm", 4*runs, prep, warmFn)
	if err != nil {
		return nil, err
	}
	coldRest, err := hostMeasure("machine-acquire/cold", 4*runs, nil, coldFn)
	if err != nil {
		return nil, err
	}

	// Checkpoint fast-forwarding (docs/PERF.md, Level 5): a warm
	// campaign over the dispatch benchmark, restricted to the
	// transient fault models the row's recorded ratio was measured on
	// (BenchmarkStuckLaneSites times stuck-lane sites), with and without
	// prepared checkpoints.
	// Reports are byte-identical either way (pinned by differential
	// tests); only the wall clock moves.
	ffModels := []fault.Model{fault.ModelSpadBit, fault.ModelGPRBit, fault.ModelFetchBit, fault.ModelDMABit}
	replayRun, err := hostCampaignFnWith(warmSuite, dispatchBenchmark,
		fault.Campaign{Seed: seed, Sites: sites, Workers: 1, Models: ffModels})
	if err != nil {
		return nil, err
	}
	ffRun, err := hostCampaignFnWith(warmSuite, dispatchBenchmark,
		fault.Campaign{Seed: seed, Sites: sites, Workers: 1, Models: ffModels, Checkpoints: hostFFCheckpoints})
	if err != nil {
		return nil, err
	}
	if err := replayRun(); err != nil {
		return nil, err
	}
	if err := ffRun(); err != nil {
		return nil, err
	}
	replayCamp, err := hostMeasure("campaign-fastforward/replay", runs, nil, replayRun)
	if err != nil {
		return nil, err
	}
	ffCamp, err := hostMeasure("campaign-fastforward/checkpointed", runs, nil, ffRun)
	if err != nil {
		return nil, err
	}

	// The daemon's run path minus HTTP: Suite.RunOnce on the warm suite.
	// The untimed first run verifies and records the output, so every
	// timed run compares against it; -check-host gates the row's
	// allocations like machine-acquire/warm's.
	serveRun := func() error {
		_, err := warmSuite.RunOnce(context.Background(), serveBenchmark)
		return err
	}
	if err := serveRun(); err != nil {
		return nil, err
	}
	serve, err := hostMeasure("serve-run/warm", 4*runs, nil, serveRun)
	if err != nil {
		return nil, err
	}

	rep.Entries = []HostEntry{warmCamp, coldCamp, warmRest, coldRest, replayCamp, ffCamp, serve}
	rep.CampaignSpeedup = ratio(coldCamp.NSPerRun, warmCamp.NSPerRun)
	rep.CampaignAllocRatio = ratio(coldCamp.AllocsPerRun, warmCamp.AllocsPerRun)
	rep.RestoreSpeedup = ratio(coldRest.NSPerRun, warmRest.NSPerRun)
	rep.RestoreAllocRatio = ratio(coldRest.AllocsPerRun, warmRest.AllocsPerRun)
	rep.FastForwardSpeedup = ratio(replayCamp.NSPerRun, ffCamp.NSPerRun)
	return rep, nil
}

// ratio is the cold/warm improvement factor. An allocation-free warm
// path would divide by zero (and +Inf does not survive JSON), so the
// warm denominator is floored at one unit — understating, never
// overstating, the win.
func ratio(cold, warm float64) float64 {
	if warm < 1 {
		warm = 1
	}
	return cold / warm
}

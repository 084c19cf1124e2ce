package bench

// This file is the host-benchmark regression gate (camrepro -check-host,
// `make check-host`): it re-runs the host measurements and compares them
// against the committed BENCH_host.json. Raw nanoseconds are useless for
// gating — the baseline was generated on one particular machine — so the
// gate checks the host-portable signals instead: the cold/warm ratios
// (a real warm-path regression drags the ratio down no matter how fast
// the host is) and the warm rows' allocation counts (the allocator is
// deterministic, so these move only when code changes).

import (
	"fmt"
	"strings"
)

// DefaultHostTolerance is the fractional slack -check-host applies when
// none is given: a ratio may fall to (1-tol) of the baseline and a warm
// row's allocations may grow to (1+tol) of the baseline before the gate
// trips. The default is deliberately loose because the wall-clock
// ratios swing 2-3x run to run on busy single-core hosts (scheduling
// and GC debt hit the short warm runs hardest), while the regressions
// the gate exists to catch — a lost warm path — collapse a >10x ratio
// to ~1-2x, far below any plausible floor. Allocation counts barely
// jitter at all, so the same tolerance still catches the
// order-of-magnitude jumps a lost pooling or sparse-restore path
// causes.
const DefaultHostTolerance = 0.75

// hostRatios enumerates the portable ratio metrics the gate compares.
var hostRatios = []struct {
	name string
	get  func(*HostReport) float64
}{
	{"campaign_speedup_cold_over_warm", func(r *HostReport) float64 { return r.CampaignSpeedup }},
	{"campaign_alloc_ratio_cold_over_warm", func(r *HostReport) float64 { return r.CampaignAllocRatio }},
	{"restore_speedup_cold_over_warm", func(r *HostReport) float64 { return r.RestoreSpeedup }},
	{"restore_alloc_ratio_cold_over_warm", func(r *HostReport) float64 { return r.RestoreAllocRatio }},
	// Checkpoint fast-forwarding (docs/PERF.md, Level 5). The `base <= 0`
	// skip below keeps reports generated before it checkable.
	{"campaign_speedup_replay_over_fastforward", func(r *HostReport) float64 { return r.FastForwardSpeedup }},
}

// CheckHost compares a freshly measured HostReport against a committed
// baseline and returns one human-readable line per regression (empty
// means the gate passes). tol <= 0 selects DefaultHostTolerance.
func CheckHost(baseline, fresh *HostReport, tol float64) []string {
	if tol <= 0 {
		tol = DefaultHostTolerance
	}
	var regressions []string
	if baseline.Schema != HostSchema {
		regressions = append(regressions,
			fmt.Sprintf("baseline schema %q, want %q", baseline.Schema, HostSchema))
		return regressions
	}
	if baseline.Benchmark != fresh.Benchmark {
		regressions = append(regressions,
			fmt.Sprintf("baseline measured %q but this run measured %q — not comparable",
				baseline.Benchmark, fresh.Benchmark))
		return regressions
	}
	if baseline.DispatchBenchmark != "" && baseline.DispatchBenchmark != fresh.DispatchBenchmark {
		regressions = append(regressions,
			fmt.Sprintf("baseline dispatch rows measured %q but this run measured %q — not comparable",
				baseline.DispatchBenchmark, fresh.DispatchBenchmark))
		return regressions
	}
	for _, m := range hostRatios {
		base, got := m.get(baseline), m.get(fresh)
		if base <= 0 {
			continue // an absent or degenerate baseline metric gates nothing
		}
		if floor := base * (1 - tol); got < floor {
			regressions = append(regressions, fmt.Sprintf(
				"%s fell to %.2f, below %.2f (baseline %.2f - %.0f%% tolerance)",
				m.name, got, floor, base, tol*100))
		}
	}
	// Warm-row allocation counts: near-deterministic, so growth past the
	// tolerance (plus one allocation of absolute slack, which lets a
	// zero-alloc baseline stay checkable without tripping on noise) means
	// an instrumented path started allocating.
	for _, b := range baseline.Entries {
		if !strings.HasSuffix(b.Name, "/warm") {
			continue
		}
		f, ok := findHostEntry(fresh, b.Name)
		if !ok {
			regressions = append(regressions,
				fmt.Sprintf("%s: present in baseline but missing from this run", b.Name))
			continue
		}
		if ceil := b.AllocsPerRun*(1+tol) + 1; f.AllocsPerRun > ceil {
			regressions = append(regressions, fmt.Sprintf(
				"%s allocs/run rose to %.1f, above %.1f (baseline %.1f + %.0f%% tolerance)",
				b.Name, f.AllocsPerRun, ceil, b.AllocsPerRun, tol*100))
		}
	}
	return regressions
}

func findHostEntry(r *HostReport, name string) (HostEntry, bool) {
	for _, e := range r.Entries {
		if e.Name == name {
			return e, true
		}
	}
	return HostEntry{}, false
}

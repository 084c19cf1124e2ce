package bench

import (
	"context"
	"fmt"
	"runtime"

	"cambricon/internal/claim"
	"cambricon/internal/sim"
	"cambricon/internal/workload"
)

// Result is one benchmark's outcome from a parallel suite run.
type Result struct {
	// Name is the Table III benchmark name.
	Name string
	// Stats is the Cambricon-ACC simulation result.
	Stats sim.Stats
	// DDNCycles is the DaDianNao baseline cycle count; DDNOK reports
	// whether the benchmark is expressible on the baseline at all.
	DDNCycles int64
	DDNOK     bool
	// Err is the per-benchmark failure, if any.
	Err error
}

// RunAll simulates the ten Table III benchmarks and their DaDianNao
// baselines across a pool of workers, filling the suite's caches so that
// subsequent experiment runs (Figs. 10-13) are pure cache reads.
//
// workers <= 0 means GOMAXPROCS. Results are returned in workload order
// regardless of worker count or scheduling, and — because each Machine is
// freshly constructed per benchmark and shares no state — the simulated
// statistics are bit-identical for every worker count.
//
// The first per-benchmark error is returned after all workers drain, with
// every completed Result still populated. Cancelling ctx stops the workers
// claiming new benchmarks, and RunAll returns ctx.Err() when that left one
// unrun; already-running simulations stop at their next cancellation poll
// point and are not cached, so every worker goroutine exits promptly. A
// panic inside one benchmark is recovered into that benchmark's
// Result.Err instead of crashing the pool.
func (s *Suite) RunAll(ctx context.Context, workers int) ([]Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Generate the programs up front: generation is shared by every
	// benchmark, so doing it here keeps the workers purely simulation-bound
	// and surfaces generation errors once instead of ten times.
	if _, err := s.Programs(); err != nil {
		return nil, err
	}
	benches := workload.Benchmarks()
	results := make([]Result, len(benches))
	for i := range results {
		results[i].Name = benches[i].Name
	}
	err := claim.Each(ctx, len(benches), workers, func(_, i int) {
		r := &results[i]
		// A panic in one benchmark becomes that benchmark's error; the
		// worker survives to claim the next.
		defer func() {
			if rec := recover(); rec != nil {
				r.Err = fmt.Errorf("bench: %s: panic: %v", r.Name, rec)
			}
		}()
		r.Stats, r.Err = s.StatsCtx(ctx, r.Name)
		if r.Err == nil {
			cycles, _, ok, err := s.DaDianNao(r.Name)
			r.DDNCycles, r.DDNOK, r.Err = cycles, ok, err
		}
	})
	if err != nil {
		return results, err
	}
	for i := range results {
		if results[i].Err != nil {
			return results, fmt.Errorf("bench: %s: %w", results[i].Name, results[i].Err)
		}
	}
	return results, nil
}

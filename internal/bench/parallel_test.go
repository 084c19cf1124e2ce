package bench

import (
	"context"
	"sync"
	"testing"

	"cambricon/internal/workload"
)

// TestRunAllDeterministic is the parallel-harness regression guard: the
// suite run with 1 worker and with 8 workers under the same seed must
// produce byte-identical sim.Stats for all ten benchmarks. Machines share
// no state (see sim.Machine), so any divergence here means a shared-state
// leak in the harness. Run under -race this also exercises the
// singleflight synchronization.
func TestRunAllDeterministic(t *testing.T) {
	serial, err := NewSuite(7).RunAll(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewSuite(7).RunAll(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) || len(serial) != len(workload.Benchmarks()) {
		t.Fatalf("result counts: serial %d, parallel %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Name != parallel[i].Name {
			t.Fatalf("result %d ordering differs: %q vs %q", i, serial[i].Name, parallel[i].Name)
		}
		// sim.Stats is a plain value type (int64 scalars and arrays), so ==
		// is an exact byte-wise comparison of every counter.
		if serial[i].Stats != parallel[i].Stats {
			t.Errorf("%s: stats differ between workers=1 and workers=8:\nserial:   %+v\nparallel: %+v",
				serial[i].Name, serial[i].Stats, parallel[i].Stats)
		}
		if serial[i].DDNOK != parallel[i].DDNOK || serial[i].DDNCycles != parallel[i].DDNCycles {
			t.Errorf("%s: baseline results differ", serial[i].Name)
		}
	}
}

// TestRunAllMatchesSerialStats pins the parallel path to the plain Stats
// accessor used by the experiments.
func TestRunAllMatchesSerialStats(t *testing.T) {
	s := newTestSuite()
	results, err := s.RunAll(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	ref := newTestSuite()
	for _, r := range results {
		st, err := ref.Stats(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if st != r.Stats {
			t.Errorf("%s: RunAll stats differ from Suite.Stats", r.Name)
		}
	}
}

// TestRunAllCachesIntoSuite checks that experiments after RunAll are pure
// cache reads sharing the same singleflight results.
func TestRunAllCachesIntoSuite(t *testing.T) {
	s := newTestSuite()
	results, err := s.RunAll(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		st, err := s.Stats(r.Name)
		if err != nil {
			t.Fatal(err)
		}
		if st != r.Stats {
			t.Errorf("%s: cached stats differ from RunAll result", r.Name)
		}
	}
}

// TestStatsConcurrentSingleflight hammers one benchmark from many
// goroutines; all callers must observe the same result (and -race must
// stay quiet).
func TestStatsConcurrentSingleflight(t *testing.T) {
	s := newTestSuite()
	const goroutines = 16
	var wg sync.WaitGroup
	results := make([]int64, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			st, err := s.Stats("MLP")
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = st.Cycles
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d saw %d cycles, goroutine 0 saw %d", g, results[g], results[0])
		}
	}
}

func TestRunAllContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := newTestSuite()
	if _, err := s.RunAll(ctx, 2); err == nil {
		t.Fatal("cancelled context did not surface an error")
	}
}

func TestRunAllUnknownWorkloadPropagates(t *testing.T) {
	s := newTestSuite()
	if _, err := s.Stats("nope"); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

// BenchmarkSuiteSerial and BenchmarkSuiteParallel measure full-suite
// regeneration wall clock (fresh suite per iteration, so nothing is
// cached). On a multi-core host the parallel variant should approach
// serial/min(cores, 10).
func benchSuite(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewSuite(7).RunAll(context.Background(), workers); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuiteSerial(b *testing.B)   { benchSuite(b, 1) }
func BenchmarkSuiteParallel(b *testing.B) { benchSuite(b, 0) }

package bench

// Tests pinning the service-metrics contract on the suite: attaching a
// registry never changes simulated statistics, the counters it fills
// agree with what actually happened, and with no registry attached the
// instrumentation hooks are allocation-free no-ops.

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"cambricon/internal/metrics"
	"cambricon/internal/sim"
)

// TestMeteredStatsBitIdentical pins that metering is observation only:
// a suite with a registry attached reports the exact statistics an
// unmetered suite reports.
func TestMeteredStatsBitIdentical(t *testing.T) {
	plain := NewSuite(7)
	metered := NewSuite(7)
	metered.Metrics = metrics.New()
	for _, name := range warmBenchmarks {
		p, err := plain.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := metered.Stats(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, m) {
			t.Fatalf("%s: metered stats %+v != plain stats %+v", name, m, p)
		}
	}
}

// TestSuiteMetricsCountRuns pins the counter semantics end to end: runs,
// pool traffic, snapshot gauges, restore counters and cancellations all
// reflect the work the suite actually did.
func TestSuiteMetricsCountRuns(t *testing.T) {
	reg := metrics.New()
	s := NewSuite(7)
	s.Metrics = reg
	if _, err := s.Stats("MLP"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Stats("MLP"); err != nil { // singleflight cache
		t.Fatal(err)
	}
	if _, err := s.RunOnce(context.Background(), "MLP"); err != nil { // uncached
		t.Fatal(err)
	}
	c := func(name string) uint64 { return reg.Counter(name, "").Value() }
	if got := c(MetricRunsStarted); got != 2 {
		t.Fatalf("runs started = %d, want 2 (one cached read, one RunOnce)", got)
	}
	if got := c(MetricRunsCompleted); got != 2 {
		t.Fatalf("runs completed = %d, want 2", got)
	}
	if got := c(MetricRunsFailed); got != 0 {
		t.Fatalf("runs failed = %d, want 0", got)
	}
	// The second real run restored a pooled machine from the prepared
	// snapshot instead of building one.
	if hits, misses := c(MetricPoolHits), c(MetricPoolMisses); hits == 0 || misses == 0 {
		t.Fatalf("pool hits=%d misses=%d, want both nonzero", hits, misses)
	}
	if got := c(MetricRestores); got == 0 {
		t.Fatal("no snapshot restores counted")
	}
	if got := c(MetricRestoreBytes); got == 0 {
		t.Fatal("no restore bytes counted")
	}
	g := func(name string) int64 { return reg.Gauge(name, "").Value() }
	if got := g(MetricSnapPrepared); got != 1 {
		t.Fatalf("snapshots prepared = %d, want 1", got)
	}
	b, err := s.lookup("MLP")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g(MetricSnapResident), int64(b.snap.Bytes()); got <= 0 || got != want {
		t.Fatalf("snapshot resident gauge = %d, want the snapshot's %d (> 0)", got, want)
	}
	// The per-benchmark histograms saw both real runs.
	h := reg.Histogram(MetricRunCycles, "", cycleBuckets, metrics.L("benchmark", "MLP"))
	if got := h.Count(); got != 2 {
		t.Fatalf("cycle histogram count = %d, want 2", got)
	}
	// A failed run lands in the failure counter, not the histograms,
	// and only a run its context ended is a cancellation.
	if _, err := s.RunOnce(context.Background(), "no-such-benchmark"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
	if got := c(MetricRunsFailed); got != 1 {
		t.Fatalf("runs failed = %d, want 1", got)
	}
	if got := c(MetricCancellations); got != 0 {
		t.Fatalf("cancellations = %d after an unknown-name failure, want 0", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RunOnce(ctx, "MLP"); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunOnce on a cancelled context: err = %v, want context.Canceled", err)
	}
	if got := c(MetricCancellations); got != 1 {
		t.Fatalf("cancellations = %d, want 1", got)
	}
	if got := c(MetricRunsFailed); got != 2 {
		t.Fatalf("runs failed = %d, want 2", got)
	}
}

// TestSuiteMetricsNilHooksZeroAllocs pins the nil contract at the suite
// layer: every instrumentation hook on a nil *suiteMetrics (no registry
// attached) is a zero-allocation no-op, so unmetered hot paths pay
// nothing.
func TestSuiteMetricsNilHooksZeroAllocs(t *testing.T) {
	var sm *suiteMetrics
	snap := &sim.Snapshot{}
	allocs := testing.AllocsPerRun(100, func() {
		sm.runStarted()
		sm.runDone("MLP", sim.Stats{Cycles: 1}, time.Microsecond, nil)
		sm.runDone("MLP", sim.Stats{}, time.Microsecond, context.Canceled)
		sm.poolAcquired(true)
		sm.poolAcquired(false)
		sm.restored(4096)
		sm.snapshotPrepared(snap)
	})
	if allocs != 0 {
		t.Fatalf("nil instrumentation hooks allocated %v per run, want 0", allocs)
	}
}

package bench

// This file is the service-metrics adapter (docs/OBSERVABILITY.md,
// "Service metrics"): when a Suite has a metrics.Registry attached, the
// run, warm-start and snapshot layers report aggregate counters and
// histograms into it. With no registry attached every hook below is a
// nil-receiver no-op, so the hot paths stay allocation-free and the
// simulated statistics are bit-identical either way — the same contract
// trace.Tracer and fault.Injector honour.

import (
	"context"
	"errors"
	"time"

	"cambricon/internal/metrics"
	"cambricon/internal/sim"
)

// Metric names exported by an instrumented Suite (the catalogue in
// docs/OBSERVABILITY.md).
const (
	MetricRunsStarted   = "cambricon_bench_runs_started_total"
	MetricRunsCompleted = "cambricon_bench_runs_completed_total"
	MetricRunsFailed    = "cambricon_bench_runs_failed_total"
	MetricCacheHits     = "cambricon_bench_cache_hits_total"
	MetricRunCycles     = "cambricon_bench_run_cycles"
	MetricRunWall       = "cambricon_bench_run_wall_seconds"
	MetricPoolHits      = "cambricon_pool_hits_total"
	MetricPoolMisses    = "cambricon_pool_misses_total"
	MetricPoolMemShared = "cambricon_pool_mem_shared_total"
	MetricRestores      = "cambricon_snapshot_restores_total"
	MetricRestoreBytes  = "cambricon_snapshot_restore_bytes_total"
	MetricSnapPrepared  = "cambricon_snapshot_prepared"
	MetricSnapResident  = "cambricon_snapshot_resident_bytes"
	MetricSnapDense     = "cambricon_snapshot_dense_bytes"
	MetricCancellations = "cambricon_sim_cancellations_total"
	MetricFFConverged   = "cambricon_fault_ff_converged_total"
	MetricDecodeHits    = "cambricon_bench_decode_cache_hits_total"
	MetricDecodeMisses  = "cambricon_bench_decode_cache_misses_total"
)

// suiteMetrics is the resolved bundle of suite instruments. A nil
// *suiteMetrics (no registry attached) makes every method a no-op.
type suiteMetrics struct {
	reg *metrics.Registry

	runsStarted   *metrics.Counter
	runsCompleted *metrics.Counter
	runsFailed    *metrics.Counter
	cancellations *metrics.Counter
	cacheHits     *metrics.Counter

	poolHits      *metrics.Counter
	poolMisses    *metrics.Counter
	poolMemShared *metrics.Counter
	restores      *metrics.Counter
	restoreBytes  *metrics.Counter
	ffConvergedC  *metrics.Counter

	decodeHits   *metrics.Counter
	decodeMisses *metrics.Counter

	snapPrepared *metrics.Gauge
	snapResident *metrics.Gauge
	snapDense    *metrics.Gauge
}

// cycleBuckets spans MLP's few thousand cycles up through multi-billion
// pathological runs; wallBuckets spans a warm microsecond-scale run up
// through minutes.
var (
	cycleBuckets = metrics.ExpBuckets(1024, 4, 14)
	wallBuckets  = metrics.ExpBuckets(10e-6, 4, 14)
)

func newSuiteMetrics(reg *metrics.Registry) *suiteMetrics {
	sm := &suiteMetrics{
		reg:           reg,
		runsStarted:   reg.Counter(MetricRunsStarted, "benchmark simulations started"),
		runsCompleted: reg.Counter(MetricRunsCompleted, "benchmark simulations completed successfully"),
		runsFailed:    reg.Counter(MetricRunsFailed, "benchmark simulations that returned an error"),
		cancellations: reg.Counter(MetricCancellations, "runs ended by context cancellation"),
		cacheHits:     reg.Counter(MetricCacheHits, "Stats calls served from the suite's singleflight cache"),
		poolHits:      reg.Counter(MetricPoolHits, "machine acquisitions served by recycling a pooled machine"),
		poolMisses:    reg.Counter(MetricPoolMisses, "machine acquisitions that built a fresh machine"),
		poolMemShared: reg.Counter(MetricPoolMemShared, "pool acquisitions that reconfigured a machine from another configuration with the same memory geometry, reusing its main-memory allocation"),
		restores:      reg.Counter(MetricRestores, "snapshot restores performed by the warm-start layer"),
		restoreBytes:  reg.Counter(MetricRestoreBytes, "bytes copied by snapshot restores (dirty pages only on the warm path)"),
		ffConvergedC:  reg.Counter(MetricFFConverged, "fast-forwarded fault runs completed early by a convergence proof or a schedule showing the fault never acts (golden observation returned without simulating the remainder)"),
		decodeHits:    reg.Counter(MetricDecodeHits, "decoded-program requests served from the suite's singleflight cache"),
		decodeMisses:  reg.Counter(MetricDecodeMisses, "decoded-program requests that paid for a fresh pre-decode"),
		snapPrepared:  reg.Gauge(MetricSnapPrepared, "prepared per-benchmark snapshots held"),
		snapResident:  reg.Gauge(MetricSnapResident, "resident bytes of the prepared snapshots (page-sparse memory images)"),
		snapDense:     reg.Gauge(MetricSnapDense, "bytes the prepared snapshots would occupy with dense main-memory images"),
	}
	return sm
}

func (sm *suiteMetrics) runStarted() {
	if sm != nil {
		sm.runsStarted.Inc()
	}
}

// runDone records one finished run: outcome counters plus the
// per-benchmark cycle and wall-time histograms. A run that ended by
// context cancellation or deadline is a failed run and a cancellation.
func (sm *suiteMetrics) runDone(name string, st sim.Stats, wall time.Duration, err error) {
	if sm == nil {
		return
	}
	if err != nil {
		sm.runsFailed.Inc()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sm.cancellations.Inc()
		}
		return
	}
	sm.runsCompleted.Inc()
	sm.reg.Histogram(MetricRunCycles, "simulated cycles per run", cycleBuckets,
		metrics.L("benchmark", name)).Observe(float64(st.Cycles))
	sm.reg.Histogram(MetricRunWall, "host wall-clock seconds per run", wallBuckets,
		metrics.L("benchmark", name)).Observe(wall.Seconds())
}

func (sm *suiteMetrics) cacheHit() {
	if sm != nil {
		sm.cacheHits.Inc()
	}
}

// poolAcquired records one pool acquisition. shared marks a
// cross-configuration steal (the machine came from a different
// architectural entry with the same memory geometry and was
// Reconfigured); a shared acquisition is also a hit.
func (sm *suiteMetrics) poolAcquired(reused, shared bool) {
	if sm == nil {
		return
	}
	if reused {
		sm.poolHits.Inc()
	} else {
		sm.poolMisses.Inc()
	}
	if shared {
		sm.poolMemShared.Inc()
	}
}

func (sm *suiteMetrics) ffConverged() {
	if sm != nil {
		sm.ffConvergedC.Inc()
	}
}

func (sm *suiteMetrics) decodeCacheHit() {
	if sm != nil {
		sm.decodeHits.Inc()
	}
}

// decodeCacheMiss accounts one freshly pre-decoded program: the
// decode-cache miss that paid for it (docs/OBSERVABILITY.md,
// "Pre-decode").
func (sm *suiteMetrics) decodeCacheMiss() {
	if sm != nil {
		sm.decodeMisses.Inc()
	}
}

func (sm *suiteMetrics) restored(bytes int) {
	if sm == nil {
		return
	}
	sm.restores.Inc()
	sm.restoreBytes.Add(int64(bytes))
}

// snapshotPrepared accounts one newly captured per-benchmark snapshot:
// the resident (sparse) footprint and the dense footprint it replaced —
// their gap is the sparse-image saving as a live gauge.
func (sm *suiteMetrics) snapshotPrepared(snap *sim.Snapshot) {
	if sm == nil || snap == nil {
		return
	}
	sm.snapPrepared.Add(1)
	sm.snapResident.Add(int64(snap.Bytes()))
	sm.snapDense.Add(int64(snap.DenseBytes()))
}

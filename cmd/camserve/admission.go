package main

// Admission control for POST /run (docs/ROBUSTNESS.md, "Serving-layer
// robustness"): a fixed pool of run slots fronted by a bounded
// per-benchmark wait queue. A request that finds a free slot runs
// immediately; otherwise it queues — up to -queue-depth waiters per
// benchmark — until a slot frees, its deadline expires, the client goes
// away, or the daemon starts draining. Everything past the queue bound
// sheds immediately with a jittered Retry-After, so overload degrades
// into fast 503s instead of an unbounded goroutine pile-up.

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"cambricon/internal/metrics"
)

// Metric names owned by the admission layer.
const (
	metricSheds        = "cambricon_serve_sheds_total"
	metricQueueWaiting = "cambricon_serve_queue_waiting"
	metricQueueWait    = "cambricon_serve_queue_wait_seconds"
)

// queueWaitBuckets spans a sub-millisecond slot handoff up through
// multi-second waits behind slow benchmarks.
var queueWaitBuckets = metrics.ExpBuckets(100e-6, 4, 10)

// admitVerdict is the outcome of one admission attempt.
type admitVerdict uint8

const (
	// admitted: the caller holds a run slot and must release() it.
	admitted admitVerdict = iota
	// admitQueueFull: the benchmark's wait queue is at depth; shed.
	admitQueueFull
	// admitDraining: the daemon is shutting down; shed.
	admitDraining
	// admitTimeout: the request deadline expired while queued.
	admitTimeout
	// admitCanceled: the client went away while queued.
	admitCanceled
)

func (v admitVerdict) String() string {
	switch v {
	case admitted:
		return "admitted"
	case admitQueueFull:
		return "queue-full"
	case admitDraining:
		return "draining"
	case admitTimeout:
		return "timeout"
	case admitCanceled:
		return "canceled"
	}
	return "unknown"
}

// admission is the bounded-queue admission controller.
type admission struct {
	// slots bounds concurrent runs; holding a token = holding a slot.
	slots chan struct{}
	// depth bounds queued waiters per benchmark; 0 disables queueing
	// (no free slot -> immediate shed, the historical semantics).
	depth int
	reg   *metrics.Registry

	mu      sync.Mutex
	waiting map[string]int

	draining  atomic.Bool
	drainCh   chan struct{}
	drainOnce sync.Once
}

func newAdmission(slots, depth int, reg *metrics.Registry) *admission {
	if slots <= 0 {
		slots = 1
	}
	if depth < 0 {
		depth = 0
	}
	return &admission{
		slots:   make(chan struct{}, slots),
		depth:   depth,
		reg:     reg,
		waiting: map[string]int{},
		drainCh: make(chan struct{}),
	}
}

// acquire tries to claim a run slot for benchmark, queueing within the
// per-benchmark bound until ctx expires or a drain begins. On admitted
// the caller must release().
func (a *admission) acquire(ctx context.Context, benchmark string) admitVerdict {
	if a.draining.Load() {
		return admitDraining
	}
	select {
	case a.slots <- struct{}{}:
		return admitted
	default:
	}
	// No free slot: join the benchmark's bounded queue.
	a.mu.Lock()
	if a.waiting[benchmark] >= a.depth {
		a.mu.Unlock()
		return admitQueueFull
	}
	a.waiting[benchmark]++
	a.mu.Unlock()
	gauge := a.reg.Gauge(metricQueueWaiting, "POST /run requests queued for a run slot, by benchmark",
		metrics.L("benchmark", benchmark))
	gauge.Add(1)
	start := time.Now()
	defer func() {
		a.mu.Lock()
		a.waiting[benchmark]--
		a.mu.Unlock()
		gauge.Add(-1)
		a.reg.Histogram(metricQueueWait, "seconds spent queued for a run slot, by benchmark",
			queueWaitBuckets, metrics.L("benchmark", benchmark)).Observe(time.Since(start).Seconds())
	}()
	select {
	case a.slots <- struct{}{}:
		if a.draining.Load() {
			// Raced with drain start; hand the slot back and shed.
			<-a.slots
			return admitDraining
		}
		return admitted
	case <-a.drainCh:
		return admitDraining
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return admitTimeout
		}
		return admitCanceled
	}
}

// release hands an admitted request's slot back.
func (a *admission) release() { <-a.slots }

// startDrain flips the controller into shutdown mode: queued waiters
// shed immediately and no new request is admitted. Idempotent.
func (a *admission) startDrain() {
	a.drainOnce.Do(func() {
		a.draining.Store(true)
		close(a.drainCh)
	})
}

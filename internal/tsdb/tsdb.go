// Package tsdb is the in-process metrics history (docs/OBSERVABILITY.md,
// "Metrics history and SLOs"): a dependency-free, fixed-memory
// ring-buffer time-series store sampled from a metrics.Registry. Where
// internal/metrics answers "what are the totals right now", this package
// answers "what happened over the last N minutes" — windowed counter
// sums, quantile estimates over histogram-bucket deltas, SLO burn rates
// — which is what camserve's /vars and /alerts endpoints, its /readyz
// degradation and its Retry-After hints act on.
//
// Each Sample pass visits every registry series (Registry.Each, the same
// sorted walk the Prometheus encoder serializes) and appends one point
// per series into a fixed-capacity ring: counters record the delta since
// the previous pass, gauges record the last value, histograms record the
// per-bucket, count and sum deltas. Memory is bounded at construction —
// capacity points per series, rings preallocated on first sight of a
// series — and the oldest points are overwritten in place, so a store
// never grows with uptime.
//
// The clock is injectable (Options.Now), which makes every downstream
// artifact — /vars JSON, alert evaluations — byte-deterministic in
// tests.
package tsdb

import (
	"sync"
	"time"

	"cambricon/internal/metrics"
)

// Self-observation families a sampling Store exports when a registry is
// handed to Options.Metrics (usually the same registry it samples, so
// the sampler's own health shows up one pass later).
const (
	MetricSamplePasses = "cambricon_tsdb_sample_passes_total"
	MetricPoints       = "cambricon_tsdb_points_total"
	MetricSeries       = "cambricon_tsdb_series"
	MetricCapacity     = "cambricon_tsdb_capacity_points"
)

// DefaultCapacity is the per-series point retention when Options.Capacity
// is unset: at a 1s sampling interval this is 10 minutes of history.
const DefaultCapacity = 600

// Options configures a Store.
type Options struct {
	// Interval is the nominal sampling cadence. The store itself never
	// ticks — the owner calls Sample — but /vars reports the interval so
	// readers know the history's resolution.
	Interval time.Duration
	// Capacity is the number of points retained per series
	// (DefaultCapacity when <= 0). Memory per series is fixed at
	// construction: capacity points, plus capacity×buckets for histograms.
	Capacity int
	// Now is the clock (time.Now when nil); inject a fake for
	// deterministic tests and golden files.
	Now func() time.Time
	// Metrics, when non-nil, receives the cambricon_tsdb_* families.
	Metrics *metrics.Registry
}

// Store samples a metrics.Registry into bounded per-series rings.
// Sample, and every query, is safe for concurrent use.
type Store struct {
	reg      *metrics.Registry
	interval time.Duration
	cap      int
	now      func() time.Time

	mu     sync.RWMutex
	series map[string]*series
	keys   []string // sorted series keys, maintained on insert
	passes uint64

	passesC *metrics.Counter
	pointsC *metrics.Counter
	seriesG *metrics.Gauge
}

// series is one metric series' history: a delta baseline plus
// fixed-capacity rings. All fields are guarded by Store.mu.
type series struct {
	name, labels string
	kind         metrics.Kind
	bounds       []float64 // histogram bucket upper bounds (copied)

	// Baseline for delta encoding: the raw cumulative state at the
	// previous pass. The first pass only establishes it (no point), so a
	// store attached to a long-lived registry never records a
	// since-process-start spike as one interval's delta.
	seen        bool
	prevValue   float64
	prevCount   uint64
	prevBuckets []uint64

	// Rings: head is the next write slot, n the live point count.
	// vals holds counter deltas, gauge values, or histogram count
	// deltas; buckets (flat, cap×(len(bounds)+1)) exist for histograms
	// only.
	head, n int
	times   []int64 // unix milliseconds
	vals    []float64
	buckets []float64
}

// New builds a store over reg. Sampling does not start by itself: call
// Sample on whatever cadence (or test schedule) you own.
func New(reg *metrics.Registry, opts Options) *Store {
	capacity := opts.Capacity
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	now := opts.Now
	if now == nil {
		now = time.Now
	}
	s := &Store{
		reg:      reg,
		interval: opts.Interval,
		cap:      capacity,
		now:      now,
		series:   map[string]*series{},
		passesC:  opts.Metrics.Counter(MetricSamplePasses, "tsdb sampling passes completed"),
		pointsC:  opts.Metrics.Counter(MetricPoints, "points recorded into the tsdb rings"),
		seriesG:  opts.Metrics.Gauge(MetricSeries, "series tracked by the tsdb"),
	}
	opts.Metrics.Gauge(MetricCapacity, "points retained per tsdb series").Set(int64(capacity))
	return s
}

// Passes reports how many Sample passes have completed.
func (s *Store) Passes() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.passes
}

// keySep joins a family name and its rendered label body into a series
// key; 0x1f (unit separator) cannot appear in a metric name and is
// escaped out of label values.
const keySep = "\x1f"

// Sample takes one pass over the registry at the store's current clock
// reading: every series gets a baseline update and (after its first
// sight) one new point. A nil store is a no-op.
func (s *Store) Sample() {
	if s == nil {
		return
	}
	ts := s.now().UnixMilli()
	var points int64
	s.mu.Lock()
	s.reg.Each(func(sm *metrics.Sample) {
		if s.record(sm, ts) {
			points++
		}
	})
	s.passes++
	nSeries := len(s.series)
	s.mu.Unlock()
	s.passesC.Inc()
	s.pointsC.Add(points)
	s.seriesG.Set(int64(nSeries))
}

// record folds one registry sample into its series; reports whether a
// point was written (false on the baseline-establishing first sight).
// Caller holds s.mu.
func (s *Store) record(sm *metrics.Sample, ts int64) bool {
	key := sm.Name + keySep + sm.Labels
	se := s.series[key]
	if se == nil {
		se = s.newSeries(sm)
		s.series[key] = se
		s.insertKey(key)
	}
	switch se.kind {
	case metrics.KindGauge:
		se.push(ts, sm.Value)
		return true
	case metrics.KindCounter:
		if !se.seen {
			se.seen = true
			se.prevValue = sm.Value
			return false
		}
		d := sm.Value - se.prevValue
		if d < 0 {
			// A counter went backwards (reset); treat the new value as
			// the whole delta, the usual rate() semantics.
			d = sm.Value
		}
		se.prevValue = sm.Value
		se.push(ts, d)
		return true
	case metrics.KindHistogram:
		if !se.seen {
			se.seen = true
			se.prevCount = sm.Count
			copy(se.prevBuckets, sm.BucketCounts)
			return false
		}
		slot := se.advance(ts)
		se.vals[slot] = float64(sm.Count - se.prevCount)
		nb := len(se.bounds) + 1
		base := slot * nb
		for i := 0; i < nb && i < len(sm.BucketCounts); i++ {
			se.buckets[base+i] = float64(sm.BucketCounts[i] - se.prevBuckets[i])
			se.prevBuckets[i] = sm.BucketCounts[i]
		}
		se.prevCount = sm.Count
		return true
	}
	return false
}

// newSeries allocates the fixed rings for one just-discovered series.
func (s *Store) newSeries(sm *metrics.Sample) *series {
	se := &series{
		name:   sm.Name,
		labels: sm.Labels,
		kind:   sm.Kind,
		times:  make([]int64, s.cap),
		vals:   make([]float64, s.cap),
	}
	if sm.Kind == metrics.KindHistogram {
		se.bounds = append([]float64(nil), sm.Bounds...)
		se.prevBuckets = make([]uint64, len(sm.Bounds)+1)
		se.buckets = make([]float64, s.cap*(len(sm.Bounds)+1))
	}
	return se
}

// insertKey keeps s.keys sorted (insertion sort: series arrive rarely
// and the registry walk is already sorted).
func (s *Store) insertKey(key string) {
	i := 0
	for i < len(s.keys) && s.keys[i] < key {
		i++
	}
	s.keys = append(s.keys, "")
	copy(s.keys[i+1:], s.keys[i:])
	s.keys[i] = key
}

// advance claims the next ring slot for a point at ts.
func (se *series) advance(ts int64) int {
	slot := se.head
	se.times[slot] = ts
	se.head = (se.head + 1) % len(se.times)
	if se.n < len(se.times) {
		se.n++
	}
	return slot
}

// push writes a scalar point (counter delta or gauge value).
func (se *series) push(ts int64, v float64) {
	se.vals[se.advance(ts)] = v
}

// eachPoint visits the live points oldest-first, passing the ring slot
// so histogram visitors can address the bucket row.
func (se *series) eachPoint(visit func(slot int, ts int64, v float64)) {
	c := len(se.times)
	start := se.head - se.n
	if start < 0 {
		start += c
	}
	for i := 0; i < se.n; i++ {
		slot := (start + i) % c
		visit(slot, se.times[slot], se.vals[slot])
	}
}

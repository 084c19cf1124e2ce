package tsdb

import (
	"testing"
	"time"

	"cambricon/internal/metrics"
)

// fakeClock is a manually-stepped clock for deterministic sampling.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.UnixMilli(1_700_000_000_000).UTC()}
}
func (c *fakeClock) now() time.Time       { return c.t }
func (c *fakeClock) step(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) sample(s *Store, d time.Duration) {
	c.step(d)
	s.Sample()
}

func newTestStore(t *testing.T, reg *metrics.Registry, capacity int) (*Store, *fakeClock) {
	t.Helper()
	clk := newFakeClock()
	s := New(reg, Options{Interval: time.Second, Capacity: capacity, Now: clk.now})
	return s, clk
}

// TestCounterDeltas pins the delta encoding: the first pass establishes
// a baseline (no point), later passes record per-interval deltas, and a
// counter reset records the post-reset value as the delta.
func TestCounterDeltas(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("req_total", "requests")
	c.Add(100) // pre-store history must not appear as a spike
	s, clk := newTestStore(t, reg, 8)

	clk.sample(s, time.Second) // baseline pass
	if sum, ok := s.SumDelta("req_total", time.Hour); ok || sum != 0 {
		t.Fatalf("baseline pass recorded a point: sum=%v ok=%v", sum, ok)
	}

	c.Add(5)
	clk.sample(s, time.Second)
	c.Add(3)
	clk.sample(s, time.Second)

	if sum, ok := s.SumDelta("req_total", time.Hour); !ok || sum != 8 {
		t.Fatalf("SumDelta = %v ok=%v, want 8", sum, ok)
	}
	// A 2s window covers both points.
	if sum, ok := s.SumDelta("req_total", 2*time.Second); !ok || sum != 8 {
		t.Fatalf("2s-window SumDelta = %v ok=%v, want 8", sum, ok)
	}
	// Window narrower than history only sees the last point.
	if sum, _ := s.SumDelta("req_total", time.Second); sum != 3 {
		t.Fatalf("1s-window SumDelta = %v, want 3", sum)
	}
}

// TestGaugeLast pins gauge semantics: every pass records each labelled
// series' current value, so the latest point is the last value set.
func TestGaugeLast(t *testing.T) {
	reg := metrics.New()
	g1 := reg.Gauge("depth", "queue depth", metrics.L("q", "a"))
	g2 := reg.Gauge("depth", "queue depth", metrics.L("q", "b"))
	s, clk := newTestStore(t, reg, 8)

	g1.Set(3)
	g2.Set(4)
	clk.sample(s, time.Second)
	g1.Set(10)
	clk.sample(s, time.Second)

	last := map[string]float64{}
	s.EachSeries(time.Hour, func(meta SeriesMeta, pts []Point) {
		if meta.Name != "depth" {
			return
		}
		if meta.Kind != "gauge" || len(pts) != 2 {
			t.Fatalf("series %+v holds %d points, want a gauge with 2", meta, len(pts))
		}
		last[meta.Labels] = pts[len(pts)-1].V
	})
	if len(last) != 2 || last[`q="a"`] != 10 || last[`q="b"`] != 4 {
		t.Fatalf("latest gauge points = %v, want q=a 10 and q=b 4", last)
	}
}

// TestRingWraparound pins the fixed-memory property: a capacity-4 ring
// holds exactly the last 4 points, oldest overwritten in place.
func TestRingWraparound(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("wrap_total", "")
	s, clk := newTestStore(t, reg, 4)

	clk.sample(s, time.Second) // baseline
	for i := 1; i <= 10; i++ {
		c.Add(int64(i))
		clk.sample(s, time.Second)
	}
	var got []float64
	s.EachSeries(time.Hour, func(_ SeriesMeta, pts []Point) {
		for _, p := range pts {
			got = append(got, p.V)
		}
	})
	want := []float64{7, 8, 9, 10}
	if len(got) != len(want) {
		t.Fatalf("ring holds %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ring holds %v, want %v (oldest-first)", got, want)
		}
	}
	// Timestamps must be ascending across the wrap seam.
	var prev int64
	s.EachSeries(time.Hour, func(_ SeriesMeta, pts []Point) {
		for _, p := range pts {
			if p.T <= prev {
				t.Fatalf("timestamps not ascending: %d after %d", p.T, prev)
			}
			prev = p.T
		}
	})
}

// TestCounterReset pins reset handling: a counter that goes backwards
// records the new value as the whole delta.
func TestCounterReset(t *testing.T) {
	reg := metrics.New()
	reg.Counter("r_total", "").Add(50)
	s, clk := newTestStore(t, reg, 8)
	clk.sample(s, time.Second) // baseline at 50

	// Simulate a reset by registering a fresh registry view: easier to
	// drive via a gauge-like swap is impossible for counters, so drive
	// record() directly through a second store pass with a smaller value
	// using a fresh registry sharing the series identity.
	reg2 := metrics.New()
	c2 := reg2.Counter("r_total", "")
	c2.Add(7)
	s.reg = reg2
	clk.sample(s, time.Second)

	if sum, ok := s.SumDelta("r_total", time.Hour); !ok || sum != 7 {
		t.Fatalf("post-reset SumDelta = %v ok=%v, want 7", sum, ok)
	}
}

// TestHistogramQuantiles pins bucket-delta merging and interpolation.
func TestHistogramQuantiles(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("lat_seconds", "", []float64{0.1, 0.2, 0.4, 0.8})
	s, clk := newTestStore(t, reg, 8)
	clk.sample(s, time.Second) // baseline

	// 8 observations in (0.1, 0.2], 2 in (0.4, 0.8].
	for i := 0; i < 8; i++ {
		h.Observe(0.15)
	}
	h.Observe(0.5)
	h.Observe(0.6)
	clk.sample(s, time.Second)

	// p50 rank = 5 of 10 → inside the (0.1,0.2] bucket holding ranks
	// 1..8: 0.1 + (5/8)*0.1 = 0.1625.
	if q, ok := s.Quantile("lat_seconds", 0.5, time.Hour); !ok || q < 0.16 || q > 0.165 {
		t.Fatalf("p50 = %v ok=%v, want ~0.1625", q, ok)
	}
	// p95 rank = 9.5 → (0.4,0.8] bucket holding ranks 9..10:
	// 0.4 + ((9.5-8)/2)*0.4 = 0.7.
	if q, ok := s.Quantile("lat_seconds", 0.95, time.Hour); !ok || q < 0.69 || q > 0.71 {
		t.Fatalf("p95 = %v ok=%v, want ~0.7", q, ok)
	}
	// The 1s window holds all 10 observations.
	if _, total, ok := s.BadFraction("lat_seconds", 0.2, time.Second); !ok || total != 10 {
		t.Fatalf("1s-window BadFraction total = %v ok=%v, want 10", total, ok)
	}
	// BadFraction at the 0.2 bound: 2 of 10 above.
	bad, total, ok := s.BadFraction("lat_seconds", 0.2, time.Hour)
	if !ok || bad != 2 || total != 10 {
		t.Fatalf("BadFraction = %v/%v ok=%v, want 2/10", bad, total, ok)
	}
	// Threshold snapping: 0.3 snaps down to the 0.2 bound.
	if bad2, _, _ := s.BadFraction("lat_seconds", 0.3, time.Hour); bad2 != 2 {
		t.Fatalf("snapped BadFraction = %v, want 2", bad2)
	}
}

// TestQuantileInfBucket pins the +Inf fallback: all mass above the last
// finite bound returns that bound.
func TestQuantileInfBucket(t *testing.T) {
	reg := metrics.New()
	h := reg.Histogram("big_seconds", "", []float64{0.1, 1})
	s, clk := newTestStore(t, reg, 8)
	clk.sample(s, time.Second)
	h.Observe(50)
	h.Observe(60)
	clk.sample(s, time.Second)
	if q, ok := s.Quantile("big_seconds", 0.9, time.Hour); !ok || q != 1 {
		t.Fatalf("+Inf-bucket quantile = %v ok=%v, want last finite bound 1", q, ok)
	}
}

// TestNilStore pins the nil contract: every entry point is a no-op.
func TestNilStore(t *testing.T) {
	var s *Store
	s.Sample()
	if _, ok := s.SumDelta("x", time.Minute); ok {
		t.Fatal("nil store reported a sum")
	}
	if _, ok := s.Quantile("x", 0.5, time.Minute); ok {
		t.Fatal("nil store reported a quantile")
	}
	s.EachSeries(time.Minute, func(SeriesMeta, []Point) { t.Fatal("nil store visited") })
}

// TestSelfMetrics pins the cambricon_tsdb_* families exported into the
// sampled registry.
func TestSelfMetrics(t *testing.T) {
	reg := metrics.New()
	reg.Counter("x_total", "").Inc()
	clk := newFakeClock()
	s := New(reg, Options{Interval: time.Second, Capacity: 4, Now: clk.now, Metrics: reg})
	clk.sample(s, time.Second)
	clk.sample(s, time.Second)
	if s.Passes() != 2 {
		t.Fatalf("Passes = %d, want 2", s.Passes())
	}
	var passes, capacity float64
	reg.Each(func(sm *metrics.Sample) {
		switch sm.Name {
		case MetricSamplePasses:
			passes = sm.Value
		case MetricCapacity:
			capacity = sm.Value
		}
	})
	if passes != 2 || capacity != 4 {
		t.Fatalf("self metrics passes=%v capacity=%v, want 2 and 4", passes, capacity)
	}
}

// TestConcurrentSampleAndQuery exercises Sample racing queries; run
// under -race in CI (make race).
func TestConcurrentSampleAndQuery(t *testing.T) {
	reg := metrics.New()
	c := reg.Counter("cc_total", "")
	h := reg.Histogram("ch_seconds", "", metrics.ExpBuckets(0.001, 4, 6))
	s := New(reg, Options{Interval: time.Millisecond, Capacity: 32})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			c.Inc()
			h.Observe(0.01)
			s.Sample()
		}
	}()
	for i := 0; i < 500; i++ {
		s.SumDelta("cc_total", time.Minute)
		s.Quantile("ch_seconds", 0.9, time.Minute)
		s.EachSeries(time.Minute, func(SeriesMeta, []Point) {})
	}
	<-done
}

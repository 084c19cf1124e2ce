package tsdb

// Windowed queries over the sampled history. All family-level queries
// (SumDelta, Quantile, BadFraction) aggregate across every series of the
// named family — a labelled counter like
// cambricon_serve_sheds_total{benchmark,reason} contributes all its
// series — because the consumers (SLO rules, Retry-After hints) want
// service-level signals, not per-label ones.

import (
	"strings"
	"time"
)

// Point is one sampled value: T is unix milliseconds, V the counter
// delta, gauge value or histogram count delta recorded at that pass.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// SeriesMeta identifies one series the store tracks.
type SeriesMeta struct {
	Name   string
	Labels string
	Kind   string
}

// cutoff returns the window's lower time bound in unix millis; windows
// are half-open (now-window, now], so a 1s window at a 1s cadence holds
// exactly one point.
func (s *Store) cutoff(window time.Duration) int64 {
	return s.now().Add(-window).UnixMilli()
}

// eachFamily visits every series whose family name matches, under RLock.
func (s *Store) eachFamily(name string, visit func(*series)) {
	prefix := name + keySep
	for _, key := range s.keys {
		if strings.HasPrefix(key, prefix) {
			visit(s.series[key])
		}
	}
}

// SumDelta sums the deltas of every point in the window across all
// series of a counter family (or the count deltas of a histogram
// family). ok is false when the window holds no points at all.
func (s *Store) SumDelta(name string, window time.Duration) (sum float64, ok bool) {
	if s == nil {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	from := s.cutoff(window)
	s.eachFamily(name, func(se *series) {
		se.eachPoint(func(_ int, ts int64, v float64) {
			if ts > from {
				sum += v
				ok = true
			}
		})
	})
	return sum, ok
}

// histWindow merges the bucket deltas of every histogram series of a
// family over the window into scratch (len = buckets incl. +Inf) and
// returns the merged total. Caller holds RLock.
func (s *Store) histWindow(name string, from int64) (bounds []float64, merged []float64, total float64, ok bool) {
	s.eachFamily(name, func(se *series) {
		if se.buckets == nil {
			return
		}
		if merged == nil {
			bounds = se.bounds
			merged = make([]float64, len(se.bounds)+1)
		}
		nb := len(se.bounds) + 1
		se.eachPoint(func(slot int, ts int64, v float64) {
			if ts <= from {
				return
			}
			ok = true
			total += v
			base := slot * nb
			for i := 0; i < nb && i < len(merged); i++ {
				merged[i] += se.buckets[base+i]
			}
		})
	})
	return bounds, merged, total, ok
}

// Quantile estimates the q-quantile (0..1) of a histogram family's
// observations within the window, Prometheus histogram_quantile style:
// merge the bucket deltas, find the bucket holding the target rank, and
// interpolate linearly inside it. An estimate landing in the +Inf
// overflow bucket returns the largest finite bound. ok is false when
// the window holds no observations.
func (s *Store) Quantile(name string, q float64, window time.Duration) (v float64, ok bool) {
	if s == nil || q < 0 || q > 1 {
		return 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	bounds, merged, total, ok := s.histWindow(name, s.cutoff(window))
	if !ok || total <= 0 || len(bounds) == 0 {
		return 0, false
	}
	target := q * total
	var cum float64
	for i, b := range bounds {
		inBucket := merged[i]
		if cum+inBucket >= target {
			lower := 0.0
			if i > 0 {
				lower = bounds[i-1]
			}
			if inBucket <= 0 {
				return b, true
			}
			frac := (target - cum) / inBucket
			return lower + (b-lower)*frac, true
		}
		cum += inBucket
	}
	// Target rank sits in the +Inf bucket: the largest finite bound is
	// the best lower-bound estimate.
	return bounds[len(bounds)-1], true
}

// BadFraction splits a latency histogram family's windowed observations
// at threshold: bad is the count strictly above the largest bucket bound
// <= threshold (the threshold is snapped down to a bucket boundary, so
// choose SLO thresholds on bucket bounds for exact accounting). ok is
// false when the window holds no observations.
func (s *Store) BadFraction(name string, threshold float64, window time.Duration) (bad, total float64, ok bool) {
	if s == nil {
		return 0, 0, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	bounds, merged, total, ok := s.histWindow(name, s.cutoff(window))
	if !ok || total <= 0 {
		return 0, 0, ok
	}
	var below float64
	for i, b := range bounds {
		if b > threshold {
			break
		}
		below += merged[i]
	}
	return total - below, total, true
}

// EachSeries visits every tracked series in deterministic (name, label)
// order with its points inside the window, oldest first. The points
// slice is reused across visits — copy it to retain. A nil store visits
// nothing.
func (s *Store) EachSeries(window time.Duration, visit func(meta SeriesMeta, pts []Point)) {
	if s == nil {
		return
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	from := s.cutoff(window)
	var pts []Point
	for _, key := range s.keys {
		se := s.series[key]
		pts = pts[:0]
		se.eachPoint(func(_ int, ts int64, v float64) {
			if ts > from {
				pts = append(pts, Point{T: ts, V: v})
			}
		})
		visit(SeriesMeta{Name: se.name, Labels: se.labels, Kind: se.kind.String()}, pts)
	}
}
